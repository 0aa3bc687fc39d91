package h2p

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// fuzzCheckExempt lists the fuzz targets `make fuzz-check` leaves out on
// purpose, each with its reason; the Makefile's fuzz-check comment says the
// same.
var fuzzCheckExempt = map[string]string{
	"./internal/trace FuzzReadCSV": "FuzzCSVRoundTrip's property on seeds FuzzCSVRoundTrip's corpus holds too",
}

// fuzzCheckLine matches one fuzz-check recipe line: the package and the
// anchored target name.
var fuzzCheckLine = regexp.MustCompile(`^\t\$\(GO\) test (\S+) .*-fuzz '\^(\w+)\$\$'`)

// TestFuzzCheckListsEveryTarget fails when a fuzz target of this module is
// missing from `make fuzz-check`, when the recipe names a target that does
// not exist, or when an exemption has gone stale.
func TestFuzzCheckListsEveryTarget(t *testing.T) {
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]bool{}
	inRecipe := false
	for _, line := range strings.Split(string(mk), "\n") {
		if strings.HasPrefix(line, "fuzz-check:") {
			inRecipe = true
			continue
		}
		if !inRecipe {
			continue
		}
		if !strings.HasPrefix(line, "\t") {
			break
		}
		if m := fuzzCheckLine.FindStringSubmatch(line); m != nil {
			listed[m[1]+" "+m[2]] = true
		}
	}
	if len(listed) == 0 {
		t.Fatal("Makefile: no fuzz-check recipe lines found")
	}

	targets := map[string]bool{}
	fset := token.NewFileSet()
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); path != "." && err == nil {
				return filepath.SkipDir // another module (perfbench)
			}
			return nil
		}
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "./" + filepath.ToSlash(filepath.Dir(path))
		if pkg == "./." {
			pkg = "."
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil && strings.HasPrefix(fd.Name.Name, "Fuzz") {
				targets[pkg+" "+fd.Name.Name] = true
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var problems []string
	for target := range targets {
		_, exempt := fuzzCheckExempt[target]
		switch {
		case exempt && listed[target]:
			problems = append(problems, target+": exempt, but make fuzz-check runs it; drop the exemption")
		case !exempt && !listed[target]:
			problems = append(problems, target+": missing from make fuzz-check")
		}
	}
	for target := range listed {
		if !targets[target] {
			problems = append(problems, target+": make fuzz-check names no such fuzz target")
		}
	}
	for target := range fuzzCheckExempt {
		if !targets[target] {
			problems = append(problems, target+": exemption names no fuzz target")
		}
	}
	sort.Strings(problems)
	for _, p := range problems {
		t.Error(p)
	}
}
