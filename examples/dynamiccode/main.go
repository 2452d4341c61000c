// Dynamic code: hints from eval-generated writes (paper §3).
//
// Code generated with eval is invisible to static analysis, but the
// approximate interpreter executes it like any other code. When a dynamic
// property write inside eval'd code involves objects that originate from
// statically known code, their allocation sites are available and a write
// hint is produced — so the static analysis recovers the call edge even
// though it never sees the eval'd source.
//
//	go run ./examples/dynamiccode
package main

import (
	"fmt"
	"log"

	"repro/internal/approx"
	"repro/internal/corpus"
	"repro/internal/loc"
	"repro/internal/modules"
	"repro/internal/static"
)

func main() {
	// mini-schema builds getter methods through eval.
	project := corpus.ByName("mini-schema").Project
	run("mini-schema (eval-generated glue)", project)

	// An inline demonstration matching §3's discussion directly.
	inline := &modules.Project{
		Name: "eval-inline",
		Files: map[string]string{
			"/app/index.js": `var registry = {};
var compute = function compute(x) { return x * 2; };
var code = "registry['c" + "ompute'] = compute;";
eval(code);
var f = registry["com" + "pute"];
var result = f(21);
`,
		},
		MainEntries: []string{"/app/index.js"},
		MainPrefix:  "/app",
	}
	run("inline eval write", inline)
}

func run(title string, project *modules.Project) {
	fmt.Printf("== %s ==\n", title)
	ar, err := approx.Run(project, approx.Options{})
	if err != nil {
		log.Fatal(err)
	}
	base, ext, err := static.AnalyzeBoth(project, static.Options{
		Mode: static.WithHints, Hints: ar.Hints, DegradeFiles: ar.FaultedModules(),
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("hints: %d\n", ar.Hints.Count())
	for _, w := range ar.Hints.WriteHints() {
		evalNote := ""
		if !w.Site.Valid() {
			evalNote = "   (write occurred inside eval'd code)"
		}
		fmt.Printf("  write hint: (%v).%s ← %v%s\n", w.Target, w.Prop, w.Value, evalNote)
	}
	fmt.Printf("baseline: %v\n", base.Metrics())
	fmt.Printf("extended: %v\n", ext.Metrics())
	if project.Name == "eval-inline" {
		// The f(21) call at line 6 resolves only with hints.
		site := loc.Loc{File: "/app/index.js", Line: 6, Col: 15}
		target := loc.Loc{File: "/app/index.js", Line: 2, Col: 15}
		fmt.Printf("f(21) resolves to compute: baseline=%v extended=%v\n",
			base.Graph.HasEdge(site, target),
			ext.Graph.HasEdge(site, target))
	}
	fmt.Println()
}
