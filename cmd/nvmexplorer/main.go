// Command nvmexplorer is the CLI front end of NVMExplorer-Go, mirroring
// the artifact's `python run.py config/<name>.json` workflow plus a
// long-running study service.
//
// Usage:
//
//	nvmexplorer run <config.json> [-out dir] [-format table|json|ndjson|csv]
//	                                           run a JSON design sweep
//	nvmexplorer query <store-dir> [filters...]  answer from stored studies, zero engine work
//	nvmexplorer serve [-addr :8080] [-jobs N] [-workers N]
//	                                           serve studies over HTTP (see internal/server)
//	nvmexplorer exp <id> [-out dir]            regenerate a paper experiment (fig1..fig14, table1..table3)
//	nvmexplorer fsck <store-dir> [-repair]     scan (and repair) a study-store directory
//	nvmexplorer list                           list available experiments
//	nvmexplorer cells                          print the canonical tentpole cell database
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cell"
	"repro/internal/exp"
	"repro/internal/fabric"
	"repro/internal/nvsim"
	"repro/internal/query"
	"repro/internal/server"
	"repro/internal/store"
	"repro/internal/sweep"
	"repro/internal/viz"
)

// newEngine builds the engine a command characterizes through; tests
// replace it to observe that engine's work.
var newEngine = nvsim.NewEngine

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "nvmexplorer:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	if len(args) == 0 {
		return usageError()
	}
	switch args[0] {
	case "run":
		return runSweep(args[1:])
	case "query":
		return runQuery(os.Stdout, args[1:])
	case "serve":
		return runServe(args[1:])
	case "exp":
		return runExperiment(args[1:])
	case "fsck":
		return runFsck(os.Stdout, args[1:])
	case "list":
		return listExperiments()
	case "cells":
		return printCells()
	case "validate":
		return validateTentpoles()
	case "-h", "--help", "help":
		_ = usageError()
		return nil
	default:
		return usageError()
	}
}

func usageError() error {
	fmt.Fprintln(os.Stderr, `usage:
  nvmexplorer run <config.json> [-out dir] [-format table|json|ndjson|csv|html]
                    [-pareto metric,metric] [-store dir]
                    [-mode adaptive] [-budget N] [-seed S]
                                             run a JSON design sweep; table (default)
                                             prints result tables and writes the
                                             per-technology CSVs into -out, the other
                                             formats write the study to stdout with
                                             bytes identical to POST /v1/studies;
                                             -pareto selects the result frontier;
                                             -store reuses (and persists) evaluated
                                             design points across runs and records
                                             a study manifest for the query command;
                                             -mode adaptive explores the grid by
                                             Pareto-guided refinement instead of
                                             exhaustively, -budget caps evaluated
                                             points (successive halving), -seed fixes
                                             the halving tie-break deterministically
  nvmexplorer query <store-dir> [-list] [-study name|fp,...]
                    [-cell X] [-technology X] [-pattern X] [-target X]
                    [-capacity BYTES] [-min metric=v,...] [-max metric=v,...]
                    [-sort metric] [-order asc|desc] [-top N]
                    [-frontier metric,metric] [-format table|json|ndjson|csv|html]
                                             answer filter/top-k/Pareto queries from
                                             the stored studies of a store directory
                                             with zero engine work; -list prints the
                                             stored studies instead of querying
  nvmexplorer serve [-addr :8080] [-jobs N] [-workers N] [-grace 30s]
                    [-store dir|url] [-fabric url,url,...]
                    [-job-workers N] [-queue N]
                    [-sync-wait 0] [-study-timeout 0]
                                             serve studies over HTTP: POST /v1/studies
                                             (sync, or ?async=1 for 202+job ID),
                                             GET /v1/jobs, /v1/jobs/{id}[/result],
                                             GET /v1/cells, /v1/experiments,
                                             /v1/experiments/{id}/dashboard.html,
                                             /v1/stats, /v1/healthz, /v1/version,
                                             /v1/store/* (the store wire protocol),
                                             POST /v1/shard (fabric worker); -jobs
                                             bounds concurrent studies, -workers
                                             sizes each study's worker pool, -store
                                             persists evaluated points (and async
                                             jobs: a killed server resumes them on
                                             restart) — a http(s):// target backs
                                             this process by a peer's /v1/store/*
                                             API instead of a directory, -fabric
                                             makes this server a coordinator that
                                             shards each study's cold points across
                                             worker processes (byte-identical output
                                             at any worker count; a dead worker's
                                             shard falls back to local execution),
                                             -job-workers/-queue size the async
                                             subsystem, -sync-wait sheds sync load
                                             with 429 past the wait, -study-timeout
                                             bounds one sync study (503 past it);
                                             SIGINT/SIGTERM drains in-flight
                                             studies for -grace
  nvmexplorer exp <id> [-out dir]            regenerate a paper experiment
  nvmexplorer fsck <store-dir> [-repair]     verify a study store: checksum every
                                             record (points, studies, job journal)
                                             and count the files older versions
                                             left (shard, sync, progress and memo
                                             snapshot) as legacy; -repair quarantines
                                             corrupt files into .corrupt/, upgrades
                                             v1 pre-checksum points and removes
                                             legacy files
  nvmexplorer list                           list experiments
  nvmexplorer cells                          print the cell database
  nvmexplorer validate                       tentpole-vs-published-array validation`)
	return fmt.Errorf("see usage above")
}

// parseMixed parses flags that may appear before or after one positional
// argument (so both `run -out d cfg.json` and `run cfg.json -out d` work).
func parseMixed(fs *flag.FlagSet, args []string) (string, error) {
	if err := fs.Parse(args); err != nil {
		return "", err
	}
	rest := fs.Args()
	if len(rest) < 1 {
		return "", fmt.Errorf("missing argument")
	}
	pos := rest[0]
	if len(rest) > 1 {
		if err := fs.Parse(rest[1:]); err != nil {
			return "", err
		}
		if fs.NArg() != 0 {
			return "", fmt.Errorf("unexpected extra arguments %v", fs.Args())
		}
	}
	return pos, nil
}

func runSweep(args []string) error {
	return runSweepTo(os.Stdout, args)
}

// runSweepTo implements `nvmexplorer run`, writing study output to w so
// tests can capture the exact bytes (which must match the study service's
// responses for the same configuration).
func runSweepTo(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("run", flag.ContinueOnError)
	out := fs.String("out", "output/results", "directory for per-technology CSV results (format table)")
	format := fs.String("format", "table",
		"output format: table (result tables + CSV files), json, ndjson, csv, or html (stdout)")
	// The override flags (-pareto, -mode, -budget, -seed) are read back by
	// name through fs.Visit: an absent flag never clobbers the config.
	fs.String("pareto", "",
		"comma-separated metrics for Pareto-frontier selection (e.g. total_power_mw,mem_time_per_sec); overrides the config's pareto block")
	storeDir := fs.String("store", "",
		"persistent study-store directory: evaluated design points are reused from (and saved to) it, so re-runs and overlapping studies skip characterization")
	fs.String("mode", "",
		"exploration mode: exhaustive (default) or adaptive (Pareto-guided refinement; requires a pareto selection); overrides the config's mode")
	fs.Int("budget", 0,
		"adaptive point budget, spent deterministically by successive halving (0 = unlimited); overrides the config's budget")
	fs.Int64("seed", 0,
		"adaptive halving tie-break seed: the same (config, seed, budget) produces byte-identical output; overrides the config's seed")
	cfgPath, err := parseMixed(fs, args)
	if err != nil {
		return fmt.Errorf("run needs exactly one config file: %w", err)
	}
	if _, err := sweep.ParseFormat(*format); err != nil && *format != "table" {
		return fmt.Errorf("run: unknown format %q (want table, json, ndjson, csv, or html)", *format)
	}
	raw, err := os.ReadFile(cfgPath)
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	given := map[string]string{}
	fs.Visit(func(f *flag.Flag) { given[f.Name] = f.Value.String() })
	ov, err := sweep.ParseOverrides(func(name string) string { return given[name] })
	if err != nil {
		return fmt.Errorf("run: %w", err)
	}
	var st *store.Store
	if *storeDir != "" {
		if st, err = store.Open(*storeDir); err != nil {
			return err
		}
	}
	x, err := sweep.Expand(raw, ov, st)
	if err != nil {
		return err
	}
	x.Study.Engine = newEngine() // adaptive rounds revisit configs
	res, err := x.Study.Run()
	if err != nil {
		return err
	}
	if st != nil {
		// Record the study manifest so `nvmexplorer query` (and the
		// service's GET /v1/studies/{fp}) can replay this study from the
		// store.
		if rec, ok := x.Manifest(res); ok {
			if err := st.SaveStudy(rec); err != nil {
				fmt.Fprintln(os.Stderr, "nvmexplorer: warning: recording study manifest:", err)
			}
		}
	}
	if *format != "table" {
		return sweep.Format(*format).Write(w, res)
	}
	paths, err := sweep.WriteCSVs(res, *out)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, res.ArrayTable().String())
	fmt.Fprintln(w, res.MetricsTable().String())
	if x := res.Exploration; x != nil {
		fmt.Fprintf(w, "adaptive exploration: %d of %d grid points evaluated in %d rounds (%d pruned infeasible, %d over budget)\n",
			x.EvaluatedPoints, x.ExhaustivePoints, x.Rounds, x.PrunedInfeasible, x.PrunedBudget)
	}
	if len(res.Study.Pareto) > 0 {
		if err := res.EnsureFrontier(); err != nil {
			return err
		}
		fmt.Fprintf(w, "pareto frontier on (%s): %d of %d points\n",
			strings.Join(res.Study.Pareto, ", "), len(res.Frontier), len(res.Metrics))
		for _, i := range res.Frontier {
			m := res.Metrics[i]
			fmt.Fprintf(w, "  [%d] %s @ %d B / %s | %s\n", i, m.Array.Cell.Name,
				m.Array.CapacityBytes, m.Array.Target, m.Pattern.Name)
		}
	}
	for _, s := range res.Skipped {
		fmt.Fprintln(w, "skipped:", s)
	}
	for _, p := range paths {
		fmt.Fprintln(w, "wrote", p)
	}
	return nil
}

// parseBounds parses a comma-separated metric=value list (the -min/-max
// flags) into a metric bound map.
func parseBounds(flagName, spec string) (map[string]float64, error) {
	if spec == "" {
		return nil, nil
	}
	out := make(map[string]float64)
	for _, part := range strings.Split(spec, ",") {
		name, val, ok := strings.Cut(strings.TrimSpace(part), "=")
		if !ok {
			return nil, fmt.Errorf("query: -%s wants metric=value pairs, got %q", flagName, part)
		}
		x, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("query: -%s %s: %w", flagName, name, err)
		}
		out[name] = x
	}
	return out, nil
}

// splitList splits a comma-separated flag value, dropping empty entries.
func splitList(spec string) []string {
	if spec == "" {
		return nil
	}
	var out []string
	for _, s := range strings.Split(spec, ",") {
		if s = strings.TrimSpace(s); s != "" {
			out = append(out, s)
		}
	}
	return out
}

// runQuery implements `nvmexplorer query`: answer filter/top-k/Pareto
// queries from the study manifests of a store directory through the
// internal/query index — the CLI twin of GET /v1/query. No design point is
// characterized; everything is replayed from the store.
func runQuery(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("query", flag.ContinueOnError)
	list := fs.Bool("list", false, "list the stored studies instead of querying rows")
	study := fs.String("study", "",
		"comma-separated study selectors (fingerprint or exact name); empty queries every complete study")
	cellName := fs.String("cell", "", "filter: exact cell name")
	tech := fs.String("technology", "", "filter: technology (e.g. RRAM, STT, PCM)")
	pattern := fs.String("pattern", "", "filter: traffic-pattern name")
	target := fs.String("target", "", "filter: characterization optimization target")
	capacity := fs.Int64("capacity", 0, "filter: array capacity in bytes (0 = any)")
	minSpec := fs.String("min", "", "inclusive lower bounds, metric=value[,metric=value...]")
	maxSpec := fs.String("max", "", "inclusive upper bounds, metric=value[,metric=value...]")
	sortKey := fs.String("sort", "", "metric to rank rows by")
	order := fs.String("order", "asc", "sort order: asc or desc")
	top := fs.Int("top", 0, "keep only the best N rows after sorting (0 = all; requires -sort)")
	frontier := fs.String("frontier", "",
		"comma-separated metrics for Pareto frontier-of-union selection")
	format := fs.String("format", "table",
		"output format: table (result tables), json, ndjson, csv, or html (bytes identical to GET /v1/query)")
	dir, err := parseMixed(fs, args)
	if err != nil {
		return fmt.Errorf("query needs exactly one store directory: %w", err)
	}
	switch *order {
	case "asc", "desc":
	default:
		return fmt.Errorf("query: unknown order %q (want asc or desc)", *order)
	}
	st, err := store.Open(dir)
	if err != nil {
		return err
	}
	idx := query.New(st)
	idx.Refresh()

	if *list {
		t := viz.NewTable("Stored studies", "Fingerprint", "Name", "Points", "Rows", "Complete")
		studies := idx.Studies()
		for _, s := range studies {
			t.MustAddRow(s.Fingerprint, s.Name, s.Points, s.Rows, s.Complete)
		}
		fmt.Fprintln(w, strings.TrimRight(t.String(), "\n"))
		if len(studies) == 0 {
			fmt.Fprintln(w, "(no stored studies — run a sweep with -store, or POST /v1/studies on a served store)")
		}
		return nil
	}

	mins, err := parseBounds("min", *minSpec)
	if err != nil {
		return err
	}
	maxs, err := parseBounds("max", *maxSpec)
	if err != nil {
		return err
	}
	resp, err := idx.Query(query.Request{
		Studies:    splitList(*study),
		Cell:       *cellName,
		Technology: *tech,
		Pattern:    *pattern,
		Target:     *target,
		Capacity:   *capacity,
		Min:        mins,
		Max:        maxs,
		Sort:       *sortKey,
		Desc:       *order == "desc",
		Top:        *top,
		Frontier:   splitList(*frontier),
	})
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	if *format == "table" {
		tables, techOrder, err := sweep.ResultTables(resp.Results)
		if err != nil {
			return err
		}
		for _, k := range techOrder {
			fmt.Fprintln(w, tables[k].String())
		}
		studies := 0
		if resp.Studies != "" {
			studies = strings.Count(resp.Studies, ",") + 1
		}
		fmt.Fprintf(w, "%d row(s) from %d stored study(ies), index generation %d\n",
			resp.Rows, studies, resp.Generation)
		return nil
	}
	f, err := sweep.ParseFormat(*format)
	if err != nil {
		return fmt.Errorf("query: %w", err)
	}
	return f.Write(w, resp.Results)
}

// runServe starts the long-running study service (see internal/server).
// SIGINT/SIGTERM drain gracefully: /v1/healthz flips to 503 so load
// balancers stop routing here, in-flight studies run to completion (up to
// -grace), then the process exits cleanly.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", ":8080", "listen address")
	jobs := fs.Int("jobs", 0, "max concurrent studies (0 = GOMAXPROCS)")
	workers := fs.Int("workers", 0,
		"worker-pool size per study, and the cap on a config's own workers (0 = GOMAXPROCS/jobs)")
	grace := fs.Duration("grace", 30*time.Second,
		"how long to let in-flight studies drain on SIGINT/SIGTERM before exiting")
	storeDir := fs.String("store", "",
		"persistent study-store target: a directory (evaluated design points survive restarts), or the base URL of a peer `nvmexplorer serve` whose /v1/store/* API backs this process")
	fabricWorkers := fs.String("fabric", "",
		"comma-separated base URLs of fabric worker processes (e.g. http://w1:8080,http://w2:8080): this server becomes a coordinator that consistent-hashes each study's cold grid points across the live workers before running it; output stays byte-identical at any worker count")
	jobWorkers := fs.Int("job-workers", 0, "async job worker-pool size (0 = -jobs)")
	queue := fs.Int("queue", 0, "async job queue depth beyond running jobs (0 = 16)")
	syncWait := fs.Duration("sync-wait", 0,
		"max time a sync study request waits for a slot before a 429 with Retry-After (0 = wait as long as the client)")
	studyTimeout := fs.Duration("study-timeout", 0,
		"execution budget for one sync study; past it the run is canceled and answered 503 (0 = unlimited)")
	var fo fabric.Options
	fs.DurationVar(&fo.HedgeAfter, "hedge-after", 0,
		"coordinator only: launch a second copy of a still-running shard on the next ring owner after this long; the first result wins and the loser is cancelled (0 = no hedging)")
	fs.DurationVar(&fo.BreakerBackoff, "breaker-backoff", 0,
		"coordinator only: first open interval of a tripped worker breaker, grown exponentially with seeded jitter (0 = default 500ms)")
	fs.DurationVar(&fo.BreakerMaxBackoff, "breaker-max-backoff", 0,
		"coordinator only: ceiling on a worker breaker's open interval (0 = default 30s)")
	fs.Int64Var(&fo.BreakerSeed, "breaker-seed", 0,
		"coordinator only: seed for the breaker backoff jitter (deterministic retry schedules)")
	fs.DurationVar(&fo.Rehandshake, "rehandshake", 15*time.Second,
		"coordinator only: background re-handshake interval, so revived workers rejoin the ring between studies (0 = only at each study)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("serve: unexpected arguments %v", fs.Args())
	}
	var st *store.Store
	if *storeDir != "" {
		var err error
		if st, err = store.Open(*storeDir); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "nvmexplorer: study store at %s\n", *storeDir)
	}
	fleet := splitList(*fabricWorkers)
	srv := server.New(server.Options{
		MaxConcurrentStudies: *jobs,
		StudyWorkers:         *workers,
		Store:                st,
		JobWorkers:           *jobWorkers,
		JobQueueDepth:        *queue,
		SyncWait:             *syncWait,
		StudyTimeout:         *studyTimeout,
		Workers:              fleet,
		Fabric:               fo,
	})
	if len(fleet) > 0 {
		fmt.Fprintf(os.Stderr, "nvmexplorer: fabric coordinator over %d worker(s)\n", len(fleet))
	}
	if n := srv.ResumedJobs(); n > 0 {
		fmt.Fprintf(os.Stderr, "nvmexplorer: resumed %d journaled job(s)\n", n)
	}
	fmt.Fprintf(os.Stderr, "nvmexplorer: serving studies on %s\n", *addr)
	hs := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// No WriteTimeout: NDJSON study streams legitimately run long.
		ReadHeaderTimeout: 10 * time.Second,
		ReadTimeout:       time.Minute,
		IdleTimeout:       2 * time.Minute,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	shutdownDone := make(chan error, 1)
	go func() {
		<-ctx.Done()
		srv.Drain()
		fmt.Fprintf(os.Stderr, "nvmexplorer: draining in-flight studies (max %s)\n", *grace)
		drainCtx, cancel := context.WithTimeout(context.Background(), *grace)
		defer cancel()
		shutdownDone <- hs.Shutdown(drainCtx)
	}()

	err := hs.ListenAndServe()
	if !errors.Is(err, http.ErrServerClosed) {
		return err
	}
	// Signal path: wait for the drain to finish before reporting.
	shutdownErr := <-shutdownDone
	srv.Close() // cancel any remaining async jobs, stop the worker pool
	if shutdownErr != nil {
		return fmt.Errorf("serve: shutdown: %w", shutdownErr)
	}
	fmt.Fprintln(os.Stderr, "nvmexplorer: shut down cleanly")
	return nil
}

// runFsck implements `nvmexplorer fsck`: verify every file of a study
// store the way the live store would read it, report, and (with -repair)
// quarantine corrupt files and upgrade v1 pre-checksum points. Exit status is
// nonzero when problems remain un-repaired.
func runFsck(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("fsck", flag.ContinueOnError)
	repair := fs.Bool("repair", false,
		"quarantine corrupt files into .corrupt/, upgrade v1 pre-checksum point files (the live store reads them as misses), and remove the files older versions left (shard, sync, progress and memo snapshot); unknown-version records stay in place")
	dir, err := parseMixed(fs, args)
	if err != nil {
		return fmt.Errorf("fsck needs exactly one store directory: %w", err)
	}
	rep, err := store.Fsck(dir, *repair)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "fsck %s\n%s", dir, rep.Summary())
	if !rep.Clean() && !*repair {
		return fmt.Errorf("store has problems (re-run with -repair to fix)")
	}
	return nil
}

func runExperiment(args []string) error {
	fs := flag.NewFlagSet("exp", flag.ContinueOnError)
	out := fs.String("out", "", "optional directory for CSV output")
	id, err := parseMixed(fs, args)
	if err != nil {
		return fmt.Errorf("exp needs exactly one experiment id (try `nvmexplorer list`): %w", err)
	}
	e, err := exp.Get(id)
	if err != nil {
		return err
	}
	fmt.Printf("%s — %s\n\n", e.ID, e.Title)
	res, err := e.Run(newEngine())
	if err != nil {
		return err
	}
	for _, t := range res.Tables {
		fmt.Println(t.String())
	}
	for _, s := range res.Scatters {
		fmt.Println(s.Render(72, 18))
	}
	if *out != "" {
		if err := os.MkdirAll(*out, 0o755); err != nil {
			return err
		}
		for i, t := range res.Tables {
			name := fmt.Sprintf("%s_%d.csv", e.ID, i)
			if err := writeCSV(t, filepath.Join(*out, name)); err != nil {
				return err
			}
			fmt.Println("wrote", filepath.Join(*out, name))
		}
	}
	return nil
}

func writeCSV(t *viz.Table, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteCSV(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func listExperiments() error {
	for _, e := range exp.All() {
		fmt.Printf("%-8s %s\n", e.ID, e.Title)
	}
	return nil
}

// validateTentpoles runs the Section III-C exercise for every published
// array datapoint in the database: optimistic/pessimistic tentpole arrays
// at the macro's node and capacity must bracket (or closely track) it.
func validateTentpoles() error {
	t := viz.NewTable("Tentpole validation vs published macros",
		"Macro", "Design", "ReadNS", "ReadE[pJ]", "AreaMM2", "Bracketed")
	for _, target := range cell.ValidationTargets() {
		var lat [2]float64
		for i, f := range []cell.Flavor{cell.Optimistic, cell.Pessimistic} {
			d, err := cell.Tentpole(target.Tech, f)
			if err != nil {
				return err
			}
			d = cell.Normalize(d, target.NodeNM)
			r, err := nvsim.Characterize(nvsim.Config{
				Cell: d, CapacityBytes: target.CapacityBytes, Target: nvsim.OptReadEDP})
			if err != nil {
				return err
			}
			lat[i] = r.ReadLatencyNS
			t.MustAddRow(target.ID, d.Name, r.ReadLatencyNS, r.ReadEnergyPJ, r.AreaMM2, "")
		}
		verdict := "yes"
		if !(lat[0] < target.ReadLatencyNS && target.ReadLatencyNS < lat[1]) {
			verdict = "NO"
		}
		t.MustAddRow(target.ID, "published macro", target.ReadLatencyNS,
			target.ReadEnergyPJ, target.AreaMM2, verdict)
	}
	fmt.Println(t.String())
	return nil
}

func printCells() error {
	t := viz.NewTable("Canonical cell definitions",
		"Name", "Tech", "Flavor", "AreaF2", "Node[nm]", "Read[ns]", "Write[ns]",
		"ReadE[pJ/b]", "WriteE[pJ/b]", "Endurance", "Retention[s]", "Sense")
	for _, d := range cell.Canon() {
		t.MustAddRow(d.Name, d.Tech.String(), d.Flavor.String(), d.AreaF2, d.NodeNM,
			d.ReadLatencyNS, d.WriteLatencyNS, d.ReadEnergyPJ, d.WriteEnergyPJ,
			d.EnduranceCycles, d.RetentionS, d.Sense.String())
	}
	fmt.Println(strings.TrimRight(t.String(), "\n"))
	return nil
}
