// Command perfbench is the repository's benchmark: three workloads that
// drive the CIJ library and the query service through their public
// entry points, check every result against an oracle, and print the
// end-to-end metrics (untraced run) or the per-layer metrics (traced run)
// as one JSON line. README.md describes the workloads and the metrics.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload fig7_paged --seed 1 --seconds 20 --trace 0
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"cij/internal/exp"
)

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(config) (*report, error){
	"fig7_paged": fig7Paged,
	"serve_mix":  serveMix,
	"live_churn": liveChurn,
}

// setupRepeats is how many times a workload sets up, for the median
// reported as setup_s.
const setupRepeats = 7

func main() {
	workload := flag.String("workload", "", "workload: fig7_paged, serve_mix or live_churn")
	seed := flag.Int64("seed", 1, "input seed (>= 1); the same seed gives the same inputs")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1: traced run reporting per-layer metrics; 0: end-to-end metrics")
	commit := flag.String("commit", "unknown", "commit of the measured source, for the provenance line")
	flag.Parse()
	run, ok := workloads[*workload]
	if !ok || *seed < 1 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seed %d, seconds %d, trace %d)\n", *workload, *seed, *seconds, *trace)
		os.Exit(2)
	}
	cfg := config{
		seed:   *seed,
		run:    time.Duration(*seconds) * time.Second,
		trace:  *trace == 1,
		scale:  1,
		setups: setupRepeats,
		dir:    filepath.Join(".bench_build", "tmp"),
	}
	prov := provenance(*workload, *commit, cfg)
	line, _ := json.Marshal(prov)
	fmt.Printf("provenance %s\n", line)

	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}
	for _, p := range rep.problems {
		fmt.Fprintf(os.Stderr, "perfbench: failed: %s\n", p)
	}
	res := rep.result(cfg.trace)
	printTable(os.Stderr, res)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: encoding result: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}

// printTable writes the metrics by name with their units, for people.
func printTable(w io.Writer, res result) {
	names := make([]string, 0, len(res.Metrics))
	for name := range res.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Fprintf(w, "correct=%v attempted=%d failed=%d\n", res.Correct, res.Attempted, res.Failed)
	for _, name := range names {
		m := res.Metrics[name]
		fmt.Fprintf(w, "  %-36s %14.4f %s\n", name, m.Value, m.Unit)
	}
}

// provenanceRow identifies what was measured and where, so results from
// different hosts or sources are never compared as if they were one. The
// commit is "unknown" outside a git checkout; the source hash identifies
// the code either way.
type provenanceRow struct {
	Commit     string `json:"commit"`
	SourceHash string `json:"source_sha256"`
	Go         string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPUs       int    `json:"cpus"`
	CPUModel   string `json:"cpu_model"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Trace      bool   `json:"trace"`
}

func provenance(workload, commit string, cfg config) provenanceRow {
	host := exp.Host()
	return provenanceRow{
		Commit:     commit,
		SourceHash: sourceHash("."),
		Go:         runtime.Version(),
		GOMAXPROCS: host.GOMAXPROCS,
		CPUs:       host.CPUs,
		CPUModel:   host.CPUModel,
		Workload:   workload,
		Seed:       cfg.seed,
		Seconds:    int(cfg.run / time.Second),
		Trace:      cfg.trace,
	}
}

// sourceHash digests every Go source and module file under root in path
// order, skipping build output and hidden directories.
func sourceHash(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(path), len(data))
		h.Write(data)
		return nil
	})
	if err != nil {
		return "unknown"
	}
	return hex.EncodeToString(h.Sum(nil))
}
