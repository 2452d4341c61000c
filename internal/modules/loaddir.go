package modules

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// LoadDir reads a project from a directory on disk: every .js file becomes
// a module, with paths rooted at "/". A node_modules directory at the root
// holds dependency packages, as in a real checkout. Entry modules are, in
// order of preference: main.js, index.js, server.js, app.js at the root;
// test entries are .js files under test/ or ending in .test.js.
func LoadDir(root string) (*Project, error) {
	files := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".js") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		virtual := "/" + filepath.ToSlash(rel)
		if !strings.HasPrefix(virtual, "/node_modules/") {
			virtual = "/app" + virtual
		}
		files[virtual] = string(src)
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("modules: loading %s: %w", root, err)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("modules: no .js files under %s", root)
	}
	p := &Project{
		Name:       filepath.Base(root),
		Files:      files,
		MainPrefix: "/app",
	}
	for _, cand := range []string{"/app/main.js", "/app/index.js", "/app/server.js", "/app/app.js"} {
		if _, ok := files[cand]; ok {
			p.MainEntries = []string{cand}
			break
		}
	}
	if len(p.MainEntries) == 0 {
		// Fall back to every root-level module.
		var roots []string
		for f := range files {
			if strings.HasPrefix(f, "/app/") && strings.Count(f, "/") == 2 {
				roots = append(roots, f)
			}
		}
		sort.Strings(roots)
		p.MainEntries = roots
	}
	var tests []string
	for f := range files {
		if strings.HasPrefix(f, "/app/test/") || strings.HasSuffix(f, ".test.js") {
			tests = append(tests, f)
		}
	}
	sort.Strings(tests)
	p.TestEntries = tests
	return p, nil
}
