package sweep

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/core"
	"repro/internal/viz"
)

// Shared output-format selection. Every surface that renders a study — the
// CLI's -format flag, POST /v1/studies, GET /v1/jobs/{id}/result,
// GET /v1/query — resolves the requested format through Negotiate, so one
// table defines which names and media types exist, what the precedence is
// (?format= beats Accept), and what the two failure modes are (a bad
// explicit format vs. an Accept header naming only types we cannot
// produce). An Accept header naming no known type is refused, never
// silently answered as JSON.

// Format is one renderable study output format.
type Format string

const (
	FormatJSON   Format = "json"
	FormatNDJSON Format = "ndjson"
	FormatCSV    Format = "csv"
	FormatHTML   Format = "html"
)

// ErrBadFormat reports an explicit format name (a ?format= value or a
// -format flag) that isn't one of json|ndjson|csv|html. HTTP surfaces map
// it to 400.
var ErrBadFormat = errors.New("sweep: unknown format")

// ErrNotAcceptable reports an Accept header that names only media types no
// study writer produces. HTTP surfaces map it to 406.
var ErrNotAcceptable = errors.New("sweep: no acceptable media type")

// Formats lists the renderable formats in canonical order.
func Formats() []Format {
	return []Format{FormatJSON, FormatNDJSON, FormatCSV, FormatHTML}
}

// ParseFormat resolves an explicit format name (CLI flag, query parameter).
func ParseFormat(name string) (Format, error) {
	switch f := Format(name); f {
	case FormatJSON, FormatNDJSON, FormatCSV, FormatHTML:
		return f, nil
	}
	return "", fmt.Errorf("%w %q (want json, ndjson, csv, or html)", ErrBadFormat, name)
}

// mediaTypes maps Accept media types (and wildcard ranges) to formats.
// text/* resolves to HTML — the only text-native rendering with a layout —
// and the full wildcards resolve to JSON, the API's default representation.
var mediaTypes = map[string]Format{
	"application/json":     FormatJSON,
	"application/x-ndjson": FormatNDJSON,
	"application/ndjson":   FormatNDJSON,
	"text/csv":             FormatCSV,
	"text/html":            FormatHTML,
	"text/*":               FormatHTML,
	"application/*":        FormatJSON,
	"*/*":                  FormatJSON,
}

// Negotiate resolves the output format of one request from its Accept
// header and explicit ?format= parameter. Precedence: a non-empty
// queryParam always wins (an unknown name is ErrBadFormat, never a silent
// default); otherwise the Accept header's media types are scanned in
// order and the first one a writer can produce is chosen, skipping ranges
// refused with q=0; an empty or absent Accept means JSON. An Accept naming
// only unproducible or refused types is ErrNotAcceptable — the caller owes
// the client a 406, not a guess.
func Negotiate(accept, queryParam string) (Format, error) {
	if queryParam != "" {
		return ParseFormat(queryParam)
	}
	accept = strings.TrimSpace(accept)
	if accept == "" {
		return FormatJSON, nil
	}
	for _, part := range strings.Split(accept, ",") {
		// Past the q=0 check, quality values and other media-type
		// parameters are ignored: the first producible type in declaration
		// order wins.
		mt, params, _ := strings.Cut(part, ";")
		if refused(params) {
			continue
		}
		mt = strings.ToLower(strings.TrimSpace(mt))
		if f, ok := mediaTypes[mt]; ok {
			return f, nil
		}
	}
	return "", fmt.Errorf("%w (accept %q)", ErrNotAcceptable, accept)
}

// refused reports whether a media range's parameters carry a quality value
// of 0, which marks the range "not acceptable" (RFC 9110 §12.4.2).
func refused(params string) bool {
	for _, p := range strings.Split(params, ";") {
		if k, v, ok := strings.Cut(p, "="); ok && strings.EqualFold(strings.TrimSpace(k), "q") {
			q, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return err == nil && q == 0
		}
	}
	return false
}

// ContentType returns the response media type of a format.
func (f Format) ContentType() string {
	switch f {
	case FormatNDJSON:
		return "application/x-ndjson"
	case FormatCSV:
		return "text/csv"
	case FormatHTML:
		return "text/html; charset=utf-8"
	default:
		return "application/json"
	}
}

// Write renders a completed study in the format — the single dispatch point
// over the shared writers, so every surface that negotiated a Format
// produces byte-identical bodies.
func (f Format) Write(w io.Writer, res *core.Results) error {
	switch f {
	case FormatNDJSON:
		return WriteNDJSON(w, res)
	case FormatCSV:
		return WriteCombinedCSV(w, res)
	case FormatHTML:
		return WriteDashboardHTML(w, res)
	case FormatJSON:
		return WriteJSON(w, res)
	}
	return fmt.Errorf("%w %q", ErrBadFormat, string(f))
}

// ResultTables exposes the per-technology tables of a completed study (the
// combined-CSV partitioning) for terminal rendering — the CLI query
// subcommand's table output. Each table is its CSV rendering read back, so
// the columns and cells are exactly the CSV form's, Pareto column included.
func ResultTables(res *core.Results) (map[string]*viz.Table, []string, error) {
	t, err := newCSVTables(res)
	if err != nil {
		return nil, nil, err
	}
	tables := make(map[string]*viz.Table, len(t.techs))
	order := make([]string, 0, len(t.techs))
	var b []byte
	for i, tech := range t.techs {
		b, _ = t.appendTable(b[:0], i, nil)
		records, err := csv.NewReader(bytes.NewReader(b)).ReadAll()
		if err != nil {
			return nil, nil, fmt.Errorf("sweep: reading back %s table: %w", tech, err)
		}
		name := tech.String()
		table := viz.NewTable(name, records[0]...)
		table.Rows = records[1:]
		tables[name] = table
		order = append(order, name)
	}
	return tables, order, nil
}
