package sweep

import (
	"errors"
	"testing"
)

func TestNegotiate(t *testing.T) {
	cases := []struct {
		name   string
		accept string
		param  string
		want   Format
		err    error
	}{
		// Explicit ?format= / -format names.
		{"param json", "", "json", FormatJSON, nil},
		{"param ndjson", "", "ndjson", FormatNDJSON, nil},
		{"param csv", "", "csv", FormatCSV, nil},
		{"param html", "", "html", FormatHTML, nil},
		{"param unknown", "", "yaml", "", ErrBadFormat},
		{"param unknown empty-ish", "", " ", "", ErrBadFormat},

		// Param beats Accept, even a contradictory one.
		{"param beats accept", "text/csv", "html", FormatHTML, nil},
		{"bad param beats good accept", "application/json", "nope", "", ErrBadFormat},

		// Accept alone.
		{"no accept defaults json", "", "", FormatJSON, nil},
		{"blank accept defaults json", "   ", "", FormatJSON, nil},
		{"accept json", "application/json", "", FormatJSON, nil},
		{"accept ndjson", "application/x-ndjson", "", FormatNDJSON, nil},
		{"accept ndjson alias", "application/ndjson", "", FormatNDJSON, nil},
		{"accept csv", "text/csv", "", FormatCSV, nil},
		{"accept html", "text/html", "", FormatHTML, nil},
		{"accept case-insensitive", "Text/CSV", "", FormatCSV, nil},

		// Wildcards.
		{"accept star", "*/*", "", FormatJSON, nil},
		{"accept application star", "application/*", "", FormatJSON, nil},
		{"accept text star", "text/*", "", FormatHTML, nil},

		// Lists, parameters, precedence by declaration order.
		{"accept list first wins", "text/csv, application/json", "", FormatCSV, nil},
		{"accept list skips unknown", "image/png, text/html", "", FormatHTML, nil},
		{"accept quality params stripped", "text/html;q=0.9, text/csv;q=1.0", "", FormatHTML, nil},
		{"accept spaces", "  text/csv , */*  ", "", FormatCSV, nil},
		{"browser-style", "text/html,application/xhtml+xml,application/xml;q=0.9,*/*;q=0.8", "", FormatHTML, nil},

		// Nothing producible: 406 material, not a silent JSON default.
		{"accept only unknown", "text/plain", "", "", ErrNotAcceptable},
		{"accept only unknown list", "image/png, application/xml", "", "", ErrNotAcceptable},

		// q=0 refuses a range (RFC 9110 §12.4.2); it never counts as a match.
		{"accept json refused", "application/json;q=0", "", "", ErrNotAcceptable},
		{"accept star refused", "*/*;q=0", "", "", ErrNotAcceptable},
		{"accept refused json then csv", "application/json;q=0, text/csv", "", FormatCSV, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := Negotiate(tc.accept, tc.param)
			if tc.err != nil {
				if !errors.Is(err, tc.err) {
					t.Fatalf("Negotiate(%q, %q) err = %v, want %v", tc.accept, tc.param, err, tc.err)
				}
				return
			}
			if err != nil {
				t.Fatalf("Negotiate(%q, %q): %v", tc.accept, tc.param, err)
			}
			if got != tc.want {
				t.Fatalf("Negotiate(%q, %q) = %q, want %q", tc.accept, tc.param, got, tc.want)
			}
		})
	}
}

func TestFormatContentType(t *testing.T) {
	want := map[Format]string{
		FormatJSON:   "application/json",
		FormatNDJSON: "application/x-ndjson",
		FormatCSV:    "text/csv",
		FormatHTML:   "text/html; charset=utf-8",
	}
	for _, f := range Formats() {
		if got := f.ContentType(); got != want[f] {
			t.Fatalf("ContentType(%q) = %q, want %q", f, got, want[f])
		}
	}
}

func TestParseFormatRejectsUnknown(t *testing.T) {
	for _, bad := range []string{"", "JSON", "table", "xml"} {
		if _, err := ParseFormat(bad); !errors.Is(err, ErrBadFormat) {
			t.Fatalf("ParseFormat(%q) err = %v, want ErrBadFormat", bad, err)
		}
	}
}
