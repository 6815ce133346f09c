package server

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// TestRoutesDescribedOnce checks that every description of the API is
// generated from, or agrees with, the one route table: the OpenAPI
// document's (path, method) pairs, the patterns GET / prints, and the
// endpoint table in README.md.
func TestRoutesDescribedOnce(t *testing.T) {
	var want []string
	for _, rt := range routes() {
		want = append(want, rt.pattern)
	}
	ts := httptest.NewServer(New(Options{}).Handler())
	defer ts.Close()

	_, _, body := get(t, ts.URL+"/v1/openapi.json", nil)
	var doc struct {
		Paths map[string]map[string]json.RawMessage `json:"paths"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	var openapi []string
	for path, ops := range doc.Paths {
		for method := range ops {
			openapi = append(openapi, strings.ToUpper(method)+" "+path)
		}
	}
	slices.Sort(openapi)
	sorted := slices.Sorted(slices.Values(want))
	if !slices.Equal(openapi, sorted) {
		t.Errorf("openapi.json operations:\n%q\nroute table:\n%q", openapi, sorted)
	}

	status, _, body := get(t, ts.URL+"/", nil)
	if status != http.StatusOK {
		t.Fatalf("GET / status %d", status)
	}
	var index []string
	for _, line := range strings.Split(string(body), "\n") {
		if f := strings.Fields(line); strings.HasPrefix(line, "  ") && len(f) >= 2 {
			index = append(index, f[0]+" "+f[1])
		}
	}
	if !slices.Equal(index, want) {
		t.Errorf("GET / lists:\n%q\nroute table:\n%q", index, want)
	}

	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	var table []string
	for _, m := range regexp.MustCompile("(?m)^\\| `([A-Z]+ /v1/[^`]*)` \\|").FindAllSubmatch(readme, -1) {
		table = append(table, string(m[1]))
	}
	if !slices.Equal(table, want) {
		t.Errorf("README endpoint table:\n%q\nroute table:\n%q", table, want)
	}
}
