package fabric

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"time"

	"repro/internal/store"
)

// The anti-entropy pass. Workers running with their own persistent
// stores (-store) drift from the coordinator whenever a partition, crash,
// or lost shard keeps computed points on one side only. Reconciliation
// exchanges point-key digests over POST /v1/store/diff and ships the
// differing records both ways — pulls what the worker has and the
// coordinator lacks, pushes the reverse — until both hold identical
// point-key sets (equal Digest()). Records ride the CRC-enveloped wire
// form, so anything mangled in transit is rejected by the consumer's
// existing envelope check; every completed pass leaves an fsck-visible
// sync record in the coordinator's store.

// maxDiffPoints bounds how many records one pass moves in each direction,
// so a freshly-wiped worker doesn't pin the coordinator in one giant
// pass; the next tick continues where this one left off.
const maxDiffPoints = 4096

// AntiEntropy reconciles st against every worker whose breaker is closed.
// It runs on the Start ticker and is safe to call directly (tests, and
// operators driving a one-shot converge).
func (p *Pool) AntiEntropy(ctx context.Context, st *store.Store) {
	if st == nil {
		return
	}
	for _, url := range p.usable() {
		if ctx.Err() != nil {
			return
		}
		if err := p.syncWorker(ctx, url, st); err != nil {
			log.Printf("fabric: anti-entropy with %s: %v", url, err)
		}
	}
}

// syncWorker runs one reconciliation pass against one worker.
func (p *Pool) syncWorker(ctx context.Context, url string, st *store.Store) error {
	body, err := json.Marshal(store.DiffRequest{Protocol: store.ProtocolVersion, Addrs: st.PointAddrs()})
	if err != nil {
		return err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url+"/v1/store/diff", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := p.client.Do(req)
	if err != nil {
		return err
	}
	data, rerr := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("diff: %s", resp.Status)
	}
	if rerr != nil {
		return rerr
	}
	var diff store.DiffResponse
	if err := json.Unmarshal(data, &diff); err != nil {
		return err
	}

	pulled := 0
	for _, addrHex := range capAddrs(diff.Extra) {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		// Pull: the record names its own key and ImportPoint verifies the
		// envelope, key, and address binding — a torn or mislabeled body
		// repairs nothing and stores nothing.
		rec, err := p.pointRequest(ctx, http.MethodGet, url, addrHex, nil)
		if err != nil {
			log.Printf("fabric: anti-entropy pull %s from %s: %v", addrHex[:12], url, err)
			continue
		}
		if _, err := st.ImportPoint(rec); err != nil {
			log.Printf("fabric: anti-entropy pull %s from %s: %v", addrHex[:12], url, err)
			continue
		}
		pulled++
	}
	pushed := 0
	for _, addrHex := range capAddrs(diff.Missing) {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		rec, ok := st.ExportPoint(addrHex)
		if !ok {
			continue
		}
		if _, err := p.pointRequest(ctx, http.MethodPut, url, addrHex, rec); err != nil {
			log.Printf("fabric: anti-entropy push %s to %s: %v", addrHex[:12], url, err)
			continue
		}
		pushed++
	}

	p.aeRuns.Add(1)
	p.aePulled.Add(int64(pulled))
	p.aePushed.Add(int64(pushed))
	if pulled+pushed > 0 {
		log.Printf("fabric: anti-entropy with %s: pulled %d, pushed %d point(s)", url, pulled, pushed)
		if err := st.RecordSync(store.SyncRecord{Peer: url, Pulled: pulled, Pushed: pushed, Unix: time.Now().Unix()}); err != nil {
			log.Printf("fabric: recording sync with %s: %v", url, err)
		}
	}
	return nil
}

func capAddrs(addrs []string) []string {
	if len(addrs) > maxDiffPoints {
		return addrs[:maxDiffPoints]
	}
	return addrs
}

// pointRequest GETs (rec == nil) or PUTs one record's envelope bytes at a
// worker and returns the response body.
func (p *Pool) pointRequest(ctx context.Context, method, url, addrHex string, rec []byte) ([]byte, error) {
	var body io.Reader
	if rec != nil {
		body = bytes.NewReader(rec)
	}
	req, err := http.NewRequestWithContext(ctx, method, url+"/v1/store/points/"+addrHex, body)
	if err != nil {
		return nil, err
	}
	if rec != nil {
		req.Header.Set("Content-Type", "application/octet-stream")
	}
	resp, err := p.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return nil, fmt.Errorf("%s point: %s", method, resp.Status)
	}
	return io.ReadAll(io.LimitReader(resp.Body, 16<<20))
}
