package server

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"testing"

	"repro/internal/store"
)

// statsKeyPaths walks a JSON document in wire order and returns the dotted
// path of every leaf value, plus the leaf values themselves by path.
func statsKeyPaths(t *testing.T, body io.Reader) ([]string, map[string]any) {
	t.Helper()
	dec := json.NewDecoder(body)
	var paths []string
	leaves := map[string]any{}
	var walk func(prefix string)
	walk = func(prefix string) {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		if tok != json.Delim('{') {
			paths = append(paths, prefix)
			leaves[prefix] = tok
			return
		}
		for dec.More() {
			key, err := dec.Token()
			if err != nil {
				t.Fatal(err)
			}
			path := key.(string)
			if prefix != "" {
				path = prefix + "." + path
			}
			walk(path)
		}
		if _, err := dec.Token(); err != nil { // closing '}'
			t.Fatal(err)
		}
	}
	walk("")
	return paths, leaves
}

// TestStatsKeysGolden pins the /v1/stats schema v3 layout: block names,
// field names and their wire order, with every optional block (store,
// fabric, query) attached. Adding, renaming, removing or reordering a key
// fails here; such changes belong to a new schema version.
func TestStatsKeysGolden(t *testing.T) {
	_, worker := newWorker(t)
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newCoordinator(t, []string{worker.URL}, st)

	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	paths, leaves := statsKeyPaths(t, resp.Body)

	want := []string{
		"schema_version",
		"memo_cache.hits",
		"memo_cache.misses",
		"store.enabled",
		"store.backend",
		"store.target",
		"store.hits",
		"store.misses",
		"store.quarantined",
		"store.io_errors",
		"store.retries",
		"store.degraded",
		"fabric.enabled",
		"fabric.workers",
		"fabric.live",
		"fabric.shards",
		"fabric.remote_hits",
		"fabric.remote_misses",
		"fabric.breaker_open",
		"fabric.breaker_trips",
		"fabric.breaker_resets",
		"fabric.shard_retries",
		"fabric.resharded",
		"fabric.hedges",
		"fabric.hedges_won",
		"fabric.hedges_lost",
		"fabric.shards_served",
		"jobs.in_flight",
		"jobs.max_concurrent",
		"jobs.study_workers",
		"jobs.completed",
		"jobs.failed",
		"jobs.points_served",
		"jobs.shed",
		"query.enabled",
		"query.studies",
		"query.incomplete",
		"query.rows",
		"query.generation",
		"query.queries",
		"exploration.prefiltered_configs",
		"exploration.adaptive_studies",
		"exploration.adaptive_points_evaluated",
		"exploration.adaptive_points_pruned",
		"async.workers",
		"async.queue_depth",
		"async.submitted",
		"async.deduplicated",
		"async.resumed",
		"async.active",
		"async.finished",
	}
	if !reflect.DeepEqual(paths, want) {
		t.Fatalf("/v1/stats key paths:\n got %q\nwant %q", paths, want)
	}
	if v := leaves["schema_version"]; v != "v3" {
		t.Fatalf("schema_version = %v, want v3", v)
	}
	for _, enabled := range []string{"store.enabled", "fabric.enabled", "query.enabled"} {
		if leaves[enabled] != true {
			t.Errorf("%s = %v, want true", enabled, leaves[enabled])
		}
	}
}
