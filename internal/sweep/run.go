package sweep

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/core"
)

// Run executes a configuration end to end.
func Run(cfg *Config) (*core.Results, error) {
	return RunContext(context.Background(), cfg, nil)
}

// RunContext is the context-aware, streaming form of Run: completed grid
// points are handed to emit in declaration order as the worker pool
// produces them (see core.Study.RunStream). emit may be nil.
func RunContext(ctx context.Context, cfg *Config, emit func(core.PointResult) error) (*core.Results, error) {
	study, err := cfg.Study()
	if err != nil {
		return nil, err
	}
	return study.RunStream(ctx, emit)
}

// WriteCSVs writes one combined CSV per technology into dir, matching the
// artifact's output/results/[eNVM]_1BPC-combined.csv convention, and
// returns the file paths written.
func WriteCSVs(res *core.Results, dir string) ([]string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	t, err := newCSVTables(res)
	if err != nil {
		return nil, err
	}
	bpc := "1BPC"
	if strings.Contains(res.Study.Name, "mlc") {
		bpc = "combinedBPC"
	}
	var paths []string
	b := make([]byte, 0, jsonChunk+2048)
	for i, tech := range t.techs {
		path := filepath.Join(dir, fmt.Sprintf("%s_%s-combined.csv", tech, bpc))
		f, err := os.Create(path)
		if err != nil {
			return paths, fmt.Errorf("sweep: %w", err)
		}
		b, err = t.appendTable(b[:0], i, f)
		if err == nil {
			_, err = f.Write(b)
		}
		if err != nil {
			f.Close()
			return paths, fmt.Errorf("sweep: writing %s: %w", path, err)
		}
		if err := f.Close(); err != nil {
			return paths, err
		}
		paths = append(paths, path)
	}
	return paths, nil
}
