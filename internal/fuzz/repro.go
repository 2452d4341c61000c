package fuzz

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Repro is a reproducer stored under testdata/fuzz/: a failure plus the
// minimized program that triggers it. The on-disk format is a small header
// followed by txtar-style file sections:
//
//	kind: unsound-edge
//	bucket: unsound-edge/computed-call
//	seed: 412
//	detail: dynamic edge /app/m0.js:7:1 -> /app/m0.js:3:10 missing ...
//	note: tracking note for open reproducers
//	entry: /app/main.js
//	-- /app/main.js --
//	var m = require("./m0");
//	...
type Repro struct {
	Kind    Kind
	Bucket  string
	Seed    uint64
	Detail  string
	Note    string
	Entries []string
	Files   map[string]string
	// Cause and Chain are the root-cause attribution (see AttributeMissedEdges):
	// the taxonomy cause of the missed edge and the provenance-chain summary
	// of the nearest delivered value. Optional; set by the cmd/fuzz annotator.
	Cause string
	Chain []string
}

// Failure converts the reproducer back into a checkable failure record.
func (r *Repro) Failure() *Failure {
	return &Failure{Seed: r.Seed, Kind: r.Kind, Bucket: r.Bucket, Detail: r.Detail,
		Files: r.Files, Entries: r.Entries, Minimized: true}
}

// ReproFromFailure wraps a failure (normally minimized) for serialization.
func ReproFromFailure(f *Failure, note string) *Repro {
	return &Repro{Kind: f.Kind, Bucket: f.Bucket, Seed: f.Seed, Detail: f.Detail,
		Note: note, Entries: f.Entries, Files: f.Files}
}

// Marshal renders the reproducer in its on-disk format.
func (r *Repro) Marshal() []byte {
	var sb strings.Builder
	fmt.Fprintf(&sb, "kind: %s\n", r.Kind)
	fmt.Fprintf(&sb, "bucket: %s\n", r.Bucket)
	fmt.Fprintf(&sb, "seed: %d\n", r.Seed)
	fmt.Fprintf(&sb, "detail: %s\n", sanitizeLine(r.Detail))
	if r.Note != "" {
		fmt.Fprintf(&sb, "note: %s\n", sanitizeLine(r.Note))
	}
	if r.Cause != "" {
		fmt.Fprintf(&sb, "cause: %s\n", sanitizeLine(r.Cause))
	}
	for _, c := range r.Chain {
		fmt.Fprintf(&sb, "chain: %s\n", sanitizeLine(c))
	}
	for _, e := range r.Entries {
		fmt.Fprintf(&sb, "entry: %s\n", e)
	}
	var paths []string
	for p := range r.Files {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		fmt.Fprintf(&sb, "-- %s --\n", p)
		src := r.Files[p]
		sb.WriteString(src)
		if !strings.HasSuffix(src, "\n") {
			sb.WriteByte('\n')
		}
	}
	return []byte(sb.String())
}

func sanitizeLine(s string) string { return strings.ReplaceAll(s, "\n", " ") }

// ParseRepro parses the on-disk reproducer format.
func ParseRepro(data []byte) (*Repro, error) {
	r := &Repro{Files: map[string]string{}}
	lines := strings.Split(string(data), "\n")
	i := 0
	for ; i < len(lines); i++ {
		line := lines[i]
		if strings.HasPrefix(line, "-- ") {
			break
		}
		key, val, ok := strings.Cut(line, ": ")
		if !ok {
			if strings.TrimSpace(line) == "" {
				continue
			}
			return nil, fmt.Errorf("fuzz: bad header line %q", line)
		}
		switch key {
		case "kind":
			r.Kind = Kind(val)
		case "bucket":
			r.Bucket = val
		case "seed":
			n, err := strconv.ParseUint(val, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("fuzz: bad seed %q", val)
			}
			r.Seed = n
		case "detail":
			r.Detail = val
		case "note":
			r.Note = val
		case "cause":
			r.Cause = val
		case "chain":
			r.Chain = append(r.Chain, val)
		case "entry":
			r.Entries = append(r.Entries, val)
		default:
			return nil, fmt.Errorf("fuzz: unknown header key %q", key)
		}
	}
	var cur string
	var body []string
	flush := func() {
		if cur != "" {
			r.Files[cur] = strings.Join(body, "\n")
		}
	}
	for ; i < len(lines); i++ {
		line := lines[i]
		if strings.HasPrefix(line, "-- ") && strings.HasSuffix(line, " --") {
			flush()
			cur = strings.TrimSuffix(strings.TrimPrefix(line, "-- "), " --")
			body = body[:0]
			continue
		}
		body = append(body, line)
	}
	flush()
	if r.Kind == "" || len(r.Entries) == 0 || len(r.Files) == 0 {
		return nil, fmt.Errorf("fuzz: incomplete reproducer (kind/entry/files required)")
	}
	return r, nil
}

// WriteReproFile writes a reproducer under dir, named after its bucket and
// seed, and returns the path.
func WriteReproFile(dir string, r *Repro) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	name := fmt.Sprintf("%s-seed%d.txt", strings.ReplaceAll(r.Bucket, "/", "-"), r.Seed)
	path := filepath.Join(dir, name)
	if err := os.WriteFile(path, r.Marshal(), 0o644); err != nil {
		return "", err
	}
	return path, nil
}

// LoadRepros reads every reproducer in dir (sorted by file name). A
// missing directory yields an empty slice.
func LoadRepros(dir string) ([]*Repro, error) {
	entries, err := os.ReadDir(dir)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var out []*Repro
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".txt") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			return nil, err
		}
		r, err := ParseRepro(data)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.Name(), err)
		}
		out = append(out, r)
	}
	return out, nil
}

// KnownBuckets returns the set of failure buckets covered by the
// reproducers in dir (the known-open set a CI run tolerates).
func KnownBuckets(dir string) (map[string]bool, error) {
	repros, err := LoadRepros(dir)
	if err != nil {
		return nil, err
	}
	out := map[string]bool{}
	for _, r := range repros {
		out[r.Bucket] = true
	}
	return out, nil
}
