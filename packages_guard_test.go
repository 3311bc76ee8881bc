package cij_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// orphanReasons lists the internal packages allowed to have no
// production caller, each with its one-line reason to exist.
var orphanReasons = map[string]string{
	"check": "test-only equivalence harness: NM≡PM≡FM≡parallel≡grid≡flat≡brute, the delta oracle and the crash matrix",
	"joins": "Section I/II-A baselines: TestEpsilonDoesNotReproduceCIJ argues no ε reproduces CIJ; examples/groupnn's All-NN route",
}

// TestNoOrphanPackages keeps unserved engines out of internal/. It parses
// the imports of every non-test Go file of the module (perfbench
// included, examples excluded) and fails on any internal package that no
// command, perfbench or root file reaches through the import graph,
// unless orphanReasons states why it is kept.
func TestNoOrphanPackages(t *testing.T) {
	imports := map[string][]string{} // package dir → the cij package dirs it imports
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path == "examples" || path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if imports[dir] == nil {
			imports[dir] = []string{} // non-nil: the package exists
		}
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if target, ok := strings.CutPrefix(p, "cij/"); ok {
				imports[dir] = append(imports[dir], target)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	reached := map[string]bool{}
	var visit func(dir string)
	visit = func(dir string) {
		for _, target := range imports[dir] {
			if !reached[target] {
				reached[target] = true
				visit(target)
			}
		}
	}
	for dir := range imports {
		if !strings.HasPrefix(dir, "internal/") {
			visit(dir)
		}
	}
	for name := range orphanReasons {
		if dir := "internal/" + name; imports[dir] == nil || reached[dir] {
			t.Errorf("orphanReasons names %s, which is gone or now has a production caller; drop it", dir)
		}
	}
	for name := range orphanReasons {
		visit("internal/" + name)
	}
	for dir := range imports {
		name, internal := strings.CutPrefix(dir, "internal/")
		if _, ok := orphanReasons[name]; internal && !ok && !reached[dir] {
			t.Errorf("%s: no command, perfbench or root file reaches it; serve it, delete it, or state its reason in orphanReasons", dir)
		}
	}
}
