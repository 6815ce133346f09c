package main

import (
	"bytes"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"

	"repro/internal/query"
	"repro/internal/store"
	"repro/internal/sweep"
)

// goldenJSON holds the SHA-256 of every warm-replay body, keyed
// "<config>/<format>", as rendered by the batch path. Regenerate it with
// `go test ./nvmxbench -run TestGolden -update` from bench/.
//
//go:embed golden.json
var goldenJSON []byte

var golden = func() map[string]string {
	m := map[string]string{}
	if err := json.Unmarshal(goldenJSON, &m); err != nil {
		panic(fmt.Sprintf("golden.json: %v", err))
	}
	return m
}()

func goldenMatch(key string, sum [32]byte) bool {
	return golden[key] == hex.EncodeToString(sum[:])
}

// batchRender runs a configuration through the batch path (sweep.Run over a
// memory store, then the format's writer): the reference every service
// response must equal byte for byte.
func batchRender(body []byte, f sweep.Format) ([]byte, error) {
	cfg, err := sweep.Parse(bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	if cfg.Cache, err = store.Open(""); err != nil {
		return nil, err
	}
	res, err := sweep.Run(cfg)
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := f.Write(&buf, res); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// sampleChecks is how many completed study responses a cold run re-renders
// through the batch path.
const sampleChecks = 32

// checkSamples re-renders a seeded sample of the completed requests through
// the batch path and returns the mismatches it finds.
func checkSamples(seed int64, next func(i int) request, done []sample) []error {
	var good []sample
	for _, sm := range done {
		if sm.err == nil {
			good = append(good, sm)
		}
	}
	r := rng(seed, streamSample)
	r.Shuffle(len(good), func(i, j int) { good[i], good[j] = good[j], good[i] })
	var errs []error
	for _, sm := range good[:min(sampleChecks, len(good))] {
		req := next(sm.i)
		want, err := batchRender(req.body, req.format)
		if err != nil {
			errs = append(errs, fmt.Errorf("request %d: batch render: %w", sm.i, err))
		} else if sha256.Sum256(want) != sm.sum {
			errs = append(errs, fmt.Errorf("request %d: response differs from the batch path", sm.i))
		}
	}
	return errs
}

// checkQueries asks each query shape over HTTP and compares the body with
// the same question answered by a fresh index over a fresh reopen of the
// store directory.
func checkQueries(s *service, seed int64, dir string) []error {
	st, err := store.Open(dir)
	if err != nil {
		return []error{fmt.Errorf("reopening store: %w", err)}
	}
	ix := query.New(st)
	ix.Refresh()
	var errs []error
	for shape := 0; shape < numShapes; shape++ {
		req := queryOfShape(rng(seed, streamCompare+uint64(shape)), seed, shape)
		resp, err := s.client.Get(s.front.URL + req.path)
		if err != nil {
			errs = append(errs, err)
			continue
		}
		got, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			errs = append(errs, fmt.Errorf("%s: status %d, %v", req.path, resp.StatusCode, err))
			continue
		}
		ans, err := ix.Query(req.query)
		if err != nil {
			errs = append(errs, fmt.Errorf("%s: fresh index: %w", req.path, err))
			continue
		}
		var want bytes.Buffer
		if err := req.format.Write(&want, ans.Results); err != nil {
			errs = append(errs, err)
			continue
		}
		if !bytes.Equal(got, want.Bytes()) {
			errs = append(errs, fmt.Errorf("%s: HTTP body differs from a fresh index", req.path))
		}
	}
	return errs
}
