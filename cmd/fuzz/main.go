// Command fuzz runs the soundness differential fuzzer: generated programs
// are executed concretely (dynamic call graph), analyzed statically
// (baseline + extended, incremental and two-pass), and checked against the
// soundness, monotonicity, equivalence, and round-trip oracles.
//
// Usage:
//
//	fuzz -seeds 1000                   # check seeds 0..999
//	fuzz -seeds 1000 -workers 8        # bounded parallelism
//	fuzz -seed 412 -v                  # re-run one seed, print its program
//	fuzz -seeds 1000 -minimize -out testdata/fuzz/open
//	fuzz -seeds 300 -known testdata/fuzz/open   # CI: fail only on NEW buckets
//	fuzz -seeds 500 -faults                     # chaos: inject one fault per seed
//	fuzz -seeds 1000 -delta                     # delta re-analysis == from-scratch
//	fuzz -seeds 2000 -tiers generators          # feature-tier grammar (also: combinators,proxy,esm,all)
//
// Exit status: 0 when every failure bucket is known (or none occurred),
// 1 when a new divergence appeared, 2 on usage errors.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/fuzz"
	"repro/internal/testgen"
)

func main() {
	var (
		seeds    = flag.Int("seeds", 200, "number of seeds to check")
		start    = flag.Uint64("start", 0, "first seed")
		oneSeed  = flag.Int64("seed", -1, "check exactly this seed (overrides -seeds/-start)")
		workers  = flag.Int("workers", 0, "parallel workers (0 = GOMAXPROCS)")
		minimize = flag.Bool("minimize", false, "delta-debug the first failure of each bucket")
		outDir   = flag.String("out", "", "write minimized reproducers into this directory (implies -minimize)")
		known    = flag.String("known", "", "directory of known-open reproducers; their buckets do not fail the run")
		note     = flag.String("note", "found by cmd/fuzz; not yet fixed", "tracking note recorded in written reproducers")
		verbose  = flag.Bool("v", false, "print the generated program of every failure")
		faults   = flag.Bool("faults", false, "sixth oracle: inject one deterministic fault per seed and check containment")
		delta    = flag.Bool("delta", false, "seventh oracle: mutate one file per seed through a resident delta session and check re-analysis == from-scratch")
		solverW  = flag.Int("solver-workers", 0, "epoch-engine scan workers per oracle run (0 and 1 both mean one worker — graphs are identical at every value)")
		tiers    = flag.String("tiers", "", "comma-separated feature tiers (generators,combinators,proxy,esm): fuzz the feature-tier grammar instead of the core one ('all' = every tier)")
		annotate = flag.String("annotate", "", "root-cause annotator: attribute every unsound-edge reproducer in this directory via the provenance engine, embed cause:/chain: headers, rewrite the files, and exit")
	)
	flag.Parse()
	if *outDir != "" {
		*minimize = true
	}

	if *annotate != "" {
		if err := annotateDir(*annotate); err != nil {
			fmt.Fprintln(os.Stderr, "fuzz:", err)
			os.Exit(2)
		}
		return
	}

	if *oneSeed >= 0 {
		*start, *seeds = uint64(*oneSeed), 1
	}
	var tierList []string
	if *tiers != "" {
		if *tiers == "all" {
			tierList = testgen.FeatureTiers
		} else {
			known := map[string]bool{}
			for _, t := range testgen.FeatureTiers {
				known[t] = true
			}
			for _, t := range strings.Split(*tiers, ",") {
				t = strings.TrimSpace(t)
				if !known[t] {
					fmt.Fprintf(os.Stderr, "fuzz: unknown tier %q (valid: %s)\n",
						t, strings.Join(testgen.FeatureTiers, ","))
					os.Exit(2)
				}
				tierList = append(tierList, t)
			}
		}
	}
	rep := fuzz.Run(fuzz.Options{
		Seeds:         *seeds,
		Start:         *start,
		Workers:       *workers,
		Minimize:      *minimize,
		Faults:        *faults,
		Delta:         *delta,
		SolverWorkers: *solverW,
		Tiers:         tierList,
	})

	fmt.Printf("fuzz: %d seeds, %d failures, %d distinct buckets (%s)\n",
		rep.Seeds, len(rep.Failures), len(rep.Buckets), rep.Duration.Round(1e6))
	for _, b := range rep.SortedBuckets() {
		fmt.Printf("  %-44s %4d  (first: seed %d)\n", b, rep.Buckets[b], rep.Representative[b].Seed)
	}

	var newBuckets []string
	knownSet := map[string]bool{}
	if *known != "" {
		var err error
		knownSet, err = fuzz.KnownBuckets(*known)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fuzz:", err)
			os.Exit(2)
		}
	}
	for _, b := range rep.SortedBuckets() {
		if !knownSet[b] {
			newBuckets = append(newBuckets, b)
		}
	}
	sort.Strings(newBuckets)

	for _, b := range rep.SortedBuckets() {
		f := rep.Representative[b]
		status := "known"
		if !knownSet[b] {
			status = "NEW"
		}
		fmt.Printf("\n[%s] %s\n", status, f)
		if *verbose || *minimize {
			for _, path := range sortedPaths(f.Files) {
				fmt.Printf("-- %s --\n%s\n", path, f.Files[path])
			}
		}
		if *outDir != "" && !knownSet[b] {
			r := fuzz.ReproFromFailure(f, *note)
			if f.Kind == fuzz.KindUnsound {
				// Attribute the missed edge so the reproducer records its
				// root cause from the start.
				if causes, err := fuzz.AttributeRepro(r); err == nil {
					r.Annotate(causes)
				}
			}
			path, err := fuzz.WriteReproFile(*outDir, r)
			if err != nil {
				fmt.Fprintln(os.Stderr, "fuzz: write repro:", err)
				os.Exit(2)
			}
			fmt.Printf("reproducer written to %s\n", path)
		}
	}

	if len(newBuckets) > 0 {
		fmt.Printf("\nfuzz: %d new divergence bucket(s): %v\n", len(newBuckets), newBuckets)
		os.Exit(1)
	}
}

// annotateDir re-attributes every unsound-edge reproducer in dir and
// rewrites it with cause:/chain: headers.
func annotateDir(dir string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".txt") {
			continue
		}
		path := filepath.Join(dir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		r, err := fuzz.ParseRepro(data)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name(), err)
		}
		if r.Kind != fuzz.KindUnsound {
			continue
		}
		causes, err := fuzz.AttributeRepro(r)
		if err != nil {
			return fmt.Errorf("%s: %w", e.Name(), err)
		}
		r.Annotate(causes)
		if err := os.WriteFile(path, r.Marshal(), 0o644); err != nil {
			return err
		}
		fmt.Printf("annotated %s", e.Name())
		if r.Cause != "" {
			fmt.Printf(": %s", r.Cause)
		}
		fmt.Println()
	}
	return nil
}

func sortedPaths(files map[string]string) []string {
	var out []string
	for p := range files {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}
