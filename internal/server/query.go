package server

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/query"
	"repro/internal/sweep"
)

// The read side of the API: GET /v1/studies, GET /v1/studies/{fingerprint},
// and GET /v1/query answer from the warm query index (internal/query) over
// the persistent store — zero engine work, microsecond lookups. The index
// is synchronized with the store's manifests at the top of each request,
// so studies completed by this process are queryable at once and studies
// completed by another process sharing the store directory within a
// second, without restarts. A synchronization lists the store's
// manifests only when something may have changed (see query.Index.Refresh).

// storeRequired answers the no-store case for read-side endpoints.
func (s *Server) storeRequired(w http.ResponseWriter) bool {
	if s.idx == nil {
		apiError(w, http.StatusNotFound, codeNoStore,
			fmt.Errorf("no study store attached (start the server with -store)"))
		return false
	}
	return true
}

// handleStudiesList lists every stored study — fingerprint, name, grid
// size, and whether it is fully stored (queryable).
func (s *Server) handleStudiesList(w http.ResponseWriter, _ *http.Request) {
	if !s.storeRequired(w) {
		return
	}
	s.idx.Refresh()
	writeJSON(w, s.idx.Studies())
}

// handleStudyGet re-renders one stored study by fingerprint, byte-identical
// to the POST /v1/studies response for the same configuration — including
// the ETag, so a client can revalidate a POST response against the GET
// endpoint and vice versa. No engine work: rows replay from the store.
func (s *Server) handleStudyGet(w http.ResponseWriter, r *http.Request) {
	if !s.storeRequired(w) {
		return
	}
	format, err := sweep.Negotiate(r.Header.Get("Accept"), r.URL.Query().Get("format"))
	if err != nil {
		formatError(w, err)
		return
	}
	fp := r.PathValue("fingerprint")
	res, known, err := s.idx.Load(fp)
	if !known {
		apiError(w, http.StatusNotFound, codeNotFound,
			fmt.Errorf("no stored study with fingerprint %q", fp))
		return
	}
	if err != nil {
		apiError(w, http.StatusConflict, codeStudyIncomplete, err)
		return
	}
	if etag := etagFor(fp, string(format)); !notModified(w, r, etag) {
		_ = s.writeResult(w, etag, format, res)
	}
}

// parseQueryRequest maps URL parameters onto a query.Request. Unknown
// parameters are rejected rather than ignored: a typoed filter that
// silently matches everything is worse than a 400. Parameters:
//
//	study=<fp|name>   source studies (repeatable or comma-separated; all when absent)
//	cell=, technology=, pattern=, target=, capacity=   axis equality filters
//	min_<metric>=, max_<metric>=   inclusive metric bounds
//	sort=<metric>, order=asc|desc, top=<k>   ranking
//	frontier=<metric,metric>   Pareto frontier of the filtered union
//	format=json|ndjson|csv|html   output (also Accept-negotiated)
func parseQueryRequest(q url.Values) (query.Request, error) {
	var req query.Request
	for key, vals := range q {
		v := vals[len(vals)-1]
		switch {
		case key == "study":
			for _, raw := range vals {
				for _, sel := range strings.Split(raw, ",") {
					if sel = strings.TrimSpace(sel); sel != "" {
						req.Studies = append(req.Studies, sel)
					}
				}
			}
		case key == "frontier":
			for _, m := range strings.Split(v, ",") {
				if m = strings.TrimSpace(m); m != "" {
					req.Frontier = append(req.Frontier, m)
				}
			}
		case key == "cell":
			req.Cell = v
		case key == "technology":
			req.Technology = v
		case key == "pattern":
			req.Pattern = v
		case key == "target":
			req.Target = v
		case key == "capacity":
			n, err := strconv.ParseInt(v, 10, 64)
			if err != nil {
				return req, fmt.Errorf("capacity %q is not a byte count", v)
			}
			req.Capacity = n
		case key == "sort":
			req.Sort = v
		case key == "order":
			switch v {
			case "asc", "":
			case "desc":
				req.Desc = true
			default:
				return req, fmt.Errorf("order %q (want asc or desc)", v)
			}
		case key == "top":
			n, err := strconv.Atoi(v)
			if err != nil {
				return req, fmt.Errorf("top %q is not a count", v)
			}
			req.Top = n
		case key == "format": // negotiated separately
		case strings.HasPrefix(key, "min_"):
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return req, fmt.Errorf("%s=%q is not a number", key, v)
			}
			if req.Min == nil {
				req.Min = map[string]float64{}
			}
			req.Min[strings.TrimPrefix(key, "min_")] = f
		case strings.HasPrefix(key, "max_"):
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				return req, fmt.Errorf("%s=%q is not a number", key, v)
			}
			if req.Max == nil {
				req.Max = map[string]float64{}
			}
			req.Max[strings.TrimPrefix(key, "max_")] = f
		default:
			return req, fmt.Errorf("unknown parameter %q", key)
		}
	}
	return req, nil
}

// handleQuery answers one ad-hoc question over the stored studies: filter,
// rank, and Pareto-select rows across any subset of them, rendered through
// the same writers as every study response. The whole request is a warm
// column scan — no characterizations, no store reads.
//
// Responses carry a strong ETag keyed on (index generation, canonical
// request, format): it stays valid exactly until a Refresh actually changes
// the indexed study set, so clients polling the same question revalidate
// with 304 for free.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if !s.storeRequired(w) {
		return
	}
	q := r.URL.Query()
	req, err := parseQueryRequest(q)
	if err != nil {
		apiError(w, http.StatusBadRequest, codeBadQuery, err)
		return
	}
	format, err := sweep.Negotiate(r.Header.Get("Accept"), q.Get("format"))
	if err != nil {
		formatError(w, err)
		return
	}
	gen := s.idx.Refresh()
	// url.Values.Encode sorts keys, so equivalent requests share an ETag.
	etag := etagFor(fmt.Sprintf("query\x00%d\x00%s", gen, q.Encode()), string(format))
	if notModified(w, r, etag) {
		return
	}
	resp, err := s.idx.Query(req)
	if err != nil {
		s.queryError(w, err)
		return
	}
	w.Header().Set("X-Query-Rows", strconv.Itoa(resp.Rows))
	w.Header().Set("X-Query-Generation", strconv.FormatInt(resp.Generation, 10))
	w.Header().Set("X-Query-Studies", resp.Studies)
	_ = s.writeResult(w, etag, format, resp.Results)
}

// queryError maps internal/query's typed errors onto the envelope.
func (s *Server) queryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, query.ErrUnknownStudy):
		apiError(w, http.StatusNotFound, codeNotFound, err)
	case errors.Is(err, query.ErrIncomplete):
		apiError(w, http.StatusConflict, codeStudyIncomplete, err)
	case errors.Is(err, query.ErrBadRequest), errors.Is(err, query.ErrAmbiguousStudy):
		apiError(w, http.StatusBadRequest, codeBadQuery, err)
	default:
		apiError(w, http.StatusInternalServerError, codeInternal, err)
	}
}
