package h2p

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// internalAPIKeep lists the exported internal identifiers that may stay
// without a caller, each with its reason. An entry that names nothing, or
// names an identifier that has gained a caller, fails the test too, so the
// list cannot go stale.
var internalAPIKeep = map[string]string{
	"tco.PUE":                         "the facility energy ledger reports PUE through it (ROADMAP item 2)",
	"tco.ERE":                         "the facility energy ledger reports ERE through it (ROADMAP item 2)",
	"tco.PRE":                         "the facility energy ledger reports PRE through it (ROADMAP item 2)",
	"units.AdvectedPower":             "the second-law audit bounds the coolant's heat flow with it (ROADMAP item 3)",
	"units.WaterDensity":              "the second-law audit's coolant heat flow needs it (ROADMAP item 3)",
	"hydro.HeatExchanger":             "the second-law audit's finite-effectiveness TEG model (ROADMAP item 3)",
	"hydro.HeatExchanger.Exchange":    "the second-law audit's finite-effectiveness TEG model (ROADMAP item 3)",
	"teg.Device.ConversionEfficiency": "the second-law audit bounds the TEGs' heat demand with it (ROADMAP item 3)",
}

// dynamicInterfaces are interfaces the standard library asserts against
// without naming them in any package scope; a method that satisfies one is
// called by the library (errors.Is, errors.As and errors.Unwrap).
const dynamicInterfaces = `package dynamic

type (
	unwrapper      interface{ Unwrap() error }
	multiUnwrapper interface{ Unwrap() []error }
	iser           interface{ Is(error) bool }
	aser           interface{ As(any) bool }
)
`

// TestInternalAPIHasCallers fails for every exported identifier declared in
// internal/ that no program references. A caller is any non-test file of
// this module (the h2p package, cmd/, examples/ and internal/) or any file
// of the perfbench module, whose tests `make perfbench-check` compiles.
// The types the h2p package aliases answer to the same rule. A method that
// implements a method of an interface the program can see (String, Error,
// MarshalJSON, ServeHTTP, ...) stays. Struct fields are not checked:
// encoders reach them by reflection.
func TestInternalAPIHasCallers(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go tool to locate standard-library export data: %v", err)
	}
	prog, err := loadProgram(goTool, ".", "github.com/h2p-sim/h2p")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range prog.unusedInternalAPI(internalAPIKeep) {
		t.Error(f)
	}
}

// TestInternalAPIGateRules runs the gate on the fixture module in
// testdata/apigate, whose root package aliases an internal type: the
// uncalled method is reported although the type is aliased, the called
// method, the interface method and the kept method are not, and a keep
// entry that names nothing is reported as stale.
func TestInternalAPIGateRules(t *testing.T) {
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skipf("no go tool to locate standard-library export data: %v", err)
	}
	prog, err := loadProgram(goTool, filepath.Join("testdata", "apigate"), "example.com/apigate")
	if err != nil {
		t.Fatal(err)
	}
	got := prog.unusedInternalAPI(map[string]string{
		"widget.Widget.Reserved": "kept",
		"widget.Widget.Gone":     "names nothing",
	})
	want := []string{
		"internal API keep list: widget.Widget.Gone names no exported internal identifier without a caller; drop the entry",
		"testdata/apigate/internal/widget/widget.go:13:17: widget.Widget.Uncalled has no caller outside tests; delete it, or move it into its package's tests if a test uses it as a referee",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// program is the module and the perfbench module, type-checked from source
// against the standard library's export data.
type program struct {
	fset   *token.FileSet
	module string
	pkgs   map[string]*srcPackage // by import path
	order  []*srcPackage          // dependencies first
	std    types.Importer
}

type srcPackage struct {
	path  string
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// loadProgram parses every package under root, the directory of the
// module's root package, and type-checks it.
func loadProgram(goTool, root, module string) (*program, error) {
	p := &program{
		fset:   token.NewFileSet(),
		module: module,
		pkgs:   map[string]*srcPackage{},
	}
	std := map[string]bool{}
	err := filepath.WalkDir(root, func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if dir != root && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.ImportDir(dir, 0)
		var noGo *build.NoGoError
		if errors.As(err, &noGo) {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, dir)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		path := module
		if rel != "." {
			path += "/" + rel
		}
		// The perfbench module's import paths extend this module's, and
		// every one of its files, tests included, is compiled by a gate.
		files, imports := bp.GoFiles, bp.Imports
		bench := rel == "perfbench" || strings.HasPrefix(rel, "perfbench/")
		if bench {
			files = append(append([]string(nil), files...), bp.TestGoFiles...)
			imports = append(append([]string(nil), imports...), bp.TestImports...)
		}
		sp := &srcPackage{path: path}
		for _, f := range files {
			af, err := parser.ParseFile(p.fset, filepath.Join(dir, f), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			sp.files = append(sp.files, af)
		}
		p.pkgs[path] = sp
		for _, imp := range imports {
			if !strings.HasPrefix(imp, module) {
				std[imp] = true
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	exports, err := stdExports(goTool, std)
	if err != nil {
		return nil, err
	}
	p.std = importer.ForCompiler(p.fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	paths := make([]string, 0, len(p.pkgs))
	for path := range p.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := p.Import(path); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// stdExports asks the go tool, once, for the export data of the listed
// standard-library packages and everything they import.
func stdExports(goTool string, std map[string]bool) (map[string]string, error) {
	args := []string{"list", "-export", "-deps", "-f", "{{.ImportPath}}\t{{.Export}}"}
	for path := range std {
		args = append(args, path)
	}
	cmd := exec.Command(goTool, args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list: %v: %s", err, stderr.Bytes())
	}
	exports := map[string]string{}
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		if path, file, ok := strings.Cut(sc.Text(), "\t"); ok && file != "" {
			exports[path] = file
		}
	}
	return exports, sc.Err()
}

// Import type-checks a package of the program from source, its program
// dependencies first, and hands every other import to the export data.
func (p *program) Import(path string) (*types.Package, error) {
	sp, ok := p.pkgs[path]
	if !ok {
		return p.std.Import(path)
	}
	if sp.types != nil {
		return sp.types, nil
	}
	sp.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: p}
	pkg, err := conf.Check(path, p.fset, sp.files, sp.info)
	if err != nil {
		return nil, fmt.Errorf("type-check %s: %w", path, err)
	}
	sp.types = pkg
	p.order = append(p.order, sp)
	return pkg, nil
}

// unusedInternalAPI returns one "file:line: ..." finding per exported
// internal identifier without a caller, and one per stale keep entry.
func (p *program) unusedInternalAPI(keep map[string]string) []string {
	internal := p.module + "/internal/"
	type decl struct {
		obj   types.Object
		key   string
		home  []posRange // uses inside these do not count
		found bool
	}
	decls := map[types.Object]*decl{}
	var all []*decl

	// Declarations: package-level objects and methods of internal packages.
	for _, sp := range p.order {
		if !strings.HasPrefix(sp.path, internal) {
			continue
		}
		name := sp.types.Name()
		methods := map[string][]posRange{} // receiver type name -> method decls
		for _, f := range sp.files {
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					recv := recvTypeName(fd.Recv.List[0].Type)
					methods[recv] = append(methods[recv], posRange{fd.Pos(), fd.End()})
				}
			}
		}
		for _, f := range sp.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() {
						continue
					}
					key := name + "." + d.Name.Name
					if d.Recv != nil {
						recv := recvTypeName(d.Recv.List[0].Type)
						if !ast.IsExported(recv) {
							continue
						}
						key = name + "." + recv + "." + d.Name.Name
					}
					dc := &decl{obj: sp.info.Defs[d.Name], key: key, home: []posRange{{d.Pos(), d.End()}}}
					decls[dc.obj] = dc
					all = append(all, dc)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							if !s.Name.IsExported() {
								continue
							}
							home := append([]posRange{{s.Pos(), s.End()}}, methods[s.Name.Name]...)
							dc := &decl{obj: sp.info.Defs[s.Name], key: name + "." + s.Name.Name, home: home}
							decls[dc.obj] = dc
							all = append(all, dc)
						case *ast.ValueSpec:
							for _, id := range s.Names {
								if !id.IsExported() {
									continue
								}
								dc := &decl{obj: sp.info.Defs[id], key: name + "." + id.Name, home: []posRange{{s.Pos(), s.End()}}}
								decls[dc.obj] = dc
								all = append(all, dc)
							}
						}
					}
				}
			}
		}
	}

	// Uses from every caller file, outside the identifier's own declaration.
	for _, sp := range p.order {
		for id, obj := range sp.info.Uses {
			dc := decls[origin(obj)]
			if dc == nil || dc.found || inRanges(id.Pos(), dc.home) {
				continue
			}
			dc.found = true
		}
	}

	// Interfaces the program can see: every named interface in a package
	// it loads, error, the library's unnamed ones, and every interface type
	// its own code spells out.
	var findings []string
	ifaces := map[string][]*types.Interface{} // method name -> interfaces
	addIface := func(it *types.Interface) {
		for i := 0; i < it.NumMethods(); i++ {
			ifaces[it.Method(i).Name()] = append(ifaces[it.Method(i).Name()], it)
		}
	}
	addIface(types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	if dyn, err := typeCheckSource(dynamicInterfaces); err == nil {
		scope := dyn.Scope()
		for _, n := range scope.Names() {
			addIface(scope.Lookup(n).Type().Underlying().(*types.Interface))
		}
	} else {
		findings = append(findings, "dynamic interfaces: "+err.Error())
	}
	seen := map[*types.Package]bool{}
	var visit func(*types.Package)
	visit = func(pkg *types.Package) {
		if seen[pkg] {
			return
		}
		seen[pkg] = true
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			if tn, ok := scope.Lookup(n).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok {
					addIface(it)
				}
			}
		}
		for _, imp := range pkg.Imports() {
			visit(imp)
		}
	}
	for _, sp := range p.order {
		visit(sp.types)
		for _, tv := range sp.info.Types {
			if it, ok := tv.Type.(*types.Interface); ok {
				addIface(it)
			}
		}
	}

	kept := map[string]bool{}
	for _, dc := range all {
		if dc.found {
			continue
		}
		if fn, ok := dc.obj.(*types.Func); ok {
			recv := fn.Type().(*types.Signature).Recv()
			if recv != nil {
				if implementsVisible(namedOf(recv.Type()), fn.Name(), ifaces) {
					continue
				}
			}
		}
		if _, ok := keep[dc.key]; ok {
			kept[dc.key] = true
			continue
		}
		findings = append(findings, fmt.Sprintf("%s: %s has no caller outside tests; delete it, or move it into its package's tests if a test uses it as a referee", p.fset.Position(dc.obj.Pos()), dc.key))
	}
	for key := range keep {
		if !kept[key] {
			findings = append(findings, fmt.Sprintf("internal API keep list: %s names no exported internal identifier without a caller; drop the entry", key))
		}
	}
	sort.Strings(findings)
	return findings
}

func typeCheckSource(src string) (*types.Package, error) {
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, "dynamic.go", src, 0)
	if err != nil {
		return nil, err
	}
	return (&types.Config{}).Check("dynamic", fset, []*ast.File{f}, nil)
}

type posRange struct{ pos, end token.Pos }

func inRanges(pos token.Pos, rs []posRange) bool {
	for _, r := range rs {
		if r.pos <= pos && pos < r.end {
			return true
		}
	}
	return false
}

func recvTypeName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.ParenExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

func namedOf(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := types.Unalias(t).(*types.Named)
	if n != nil {
		n = n.Origin()
	}
	return n
}

// implementsVisible reports whether the named type, or a pointer to it,
// implements an interface that has a method of this name.
func implementsVisible(named *types.Named, method string, ifaces map[string][]*types.Interface) bool {
	if named == nil {
		return false
	}
	for _, it := range ifaces[method] {
		if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
			return true
		}
	}
	return false
}
