package hetesim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported functions and methods in internal/
// that may have no caller outside _test.go files, keyed "pkg.Recv.Name"
// (or "pkg.Name"). Each group says why it is kept; anything else with no
// caller is dead code, and TestExportsHaveCallers fails on it.
var exportAllowlist = map[string]string{}

func allow(reason string, names ...string) {
	for _, n := range names {
		exportAllowlist[n] = reason
	}
}

// testSupportPackage is kept whole: internal/chaos is the fault-injection
// kit the tests of other packages drive, and `make contract` keeps it out
// of every binary, so nothing outside tests may call it.
const testSupportPackage = "hetesim/internal/chaos"

func init() {
	allow("fixture other packages' tests build graphs and queries with",
		"hin.Builder.MustBuild", "hin.Builder.Err", "sparse.FromDense",
		"core.Engine.TopKSearch", "server.Server.AcceptsWrites", "server.Server.Diverged",
		"server.WithSnapshotFS", "hin.Graph.Degree", "hin.Graph.Neighbors",
		"datagen.Movies", "datagen.DefaultMoviesConfig", "datagen.SmallMoviesConfig")
	allow("reference the tests compare against (Property 5, the SimRank complexity benchmark, the Jacobi eigen check)",
		"baseline.SimRankBipartite", "baseline.SimRankBipartiteRecursion", "baseline.SimRankHIN",
		"linalg.JacobiEigen")
	allow("paper definition (Def. 2, path concatenation) the property tests check",
		"metapath.Path.Concat")
	allow("open question whether learned path weights get a serving caller (ROADMAP item 15)",
		"learn.PathWeights", "relevance.WeightsMap")
	allow("fixture its own package's tests use",
		"linalg.DenseFromSlices", "linalg.Dense.Mul", "linalg.Dense.Transpose",
		"sparse.Matrix.Equal", "sparse.Matrix.Sum", "sparse.Matrix.Clone",
		"sparse.Vector.Sum", "sparse.Vector.Scale", "sparse.Vector.Add", "sparse.Vector.ApproxEqual",
		"metapath.Path.Step", "metapath.Path.Schema", "exp.Context.Config", "baseline.PathSim.Pair")
}

// TestExportsHaveCallers fails for every exported function or method
// declared in internal/ that no non-test file of the module uses (bench/,
// cmd/ and examples/ included). It type-checks each non-test package from
// source in dependency order, with the standard library read from the
// export data `go list -export` names, and resolves every identifier and
// selector to the object it denotes, so two declarations that share a name
// are told apart. A method that makes its type satisfy an interface the
// module can see (fmt.Stringer, http.RoundTripper, exp.Renderer, ...) is
// called through that interface and counts as used.
func TestExportsHaveCallers(t *testing.T) {
	s := loadModule(t)
	declared := s.declared()
	var dead int
	for _, fn := range declared {
		if s.used[fn] || fn.Pkg().Path() == testSupportPackage || s.satisfiesInterface(fn) {
			continue
		}
		if _, ok := exportAllowlist[qualified(fn)]; !ok {
			t.Errorf("no non-test caller: %s %s", s.position(fn), qualified(fn))
			dead++
		}
	}
	if dead > 0 {
		t.Errorf("delete these (with the tests whose only subject they are) or, if a test elsewhere needs them, allowlist them in exports_test.go with a reason")
	}

	// A stale allowlist entry hides nothing today but would hide the next
	// dead function that takes its name.
	names := map[string]bool{}
	for _, fn := range declared {
		names[qualified(fn)] = true
		if reason, ok := exportAllowlist[qualified(fn)]; ok && s.used[fn] {
			t.Errorf("allowlist entry %s (%s) has a non-test caller now; remove it", qualified(fn), reason)
		}
	}
	for n := range exportAllowlist {
		if !names[n] {
			t.Errorf("allowlist entry %s names no exported function in internal/; remove it", n)
		}
	}
}

// listedPackage is the part of `go list -json` the scan reads.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Export     string
	Standard   bool
}

type moduleScan struct {
	fset *token.FileSet
	// pkgs are the module's non-test packages, type-checked from source.
	pkgs []*types.Package
	// used holds every function and method object a non-test file of the
	// module refers to, generic ones by their origin.
	used map[*types.Func]bool
	// ifaces are the non-empty interfaces declared in any package the
	// module builds against, standard library included.
	ifaces []*types.Interface
}

func loadModule(t *testing.T) *moduleScan {
	t.Helper()
	cmd := exec.Command("go", "list", "-export", "-deps", "-json", "./...")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list: %v\n%s", err, stderr.String())
	}
	var listed []listedPackage
	exports := map[string]string{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var p listedPackage
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			t.Fatalf("decode go list output: %v", err)
		}
		exports[p.ImportPath] = p.Export
		listed = append(listed, p)
	}

	s := &moduleScan{fset: token.NewFileSet(), used: map[*types.Func]bool{}}
	source := map[string]*types.Package{}
	std := importer.ForCompiler(s.fset, "gc", func(path string) (io.ReadCloser, error) {
		if exports[path] == "" {
			return nil, fmt.Errorf("no export data for %s", path)
		}
		return os.Open(exports[path])
	})
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := source[path]; ok {
			return p, nil
		}
		return std.Import(path)
	})

	// `go list -deps` prints a package after everything it imports, so
	// each module package's imports are checked before it is.
	for _, p := range listed {
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(s.fset, filepath.Join(p.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		// Uses also records the Sel of every selector, method values
		// and promoted methods included.
		info := &types.Info{
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		}
		pkg, err := (&types.Config{Importer: imp}).Check(p.ImportPath, s.fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", p.ImportPath, err)
		}
		source[p.ImportPath] = pkg
		s.pkgs = append(s.pkgs, pkg)
		for _, obj := range info.Uses {
			if fn, ok := obj.(*types.Func); ok {
				s.used[fn.Origin()] = true
			}
		}
		for _, tv := range info.Types {
			if it, ok := tv.Type.(*types.Interface); ok && it.NumMethods() > 0 {
				s.ifaces = append(s.ifaces, it)
			}
		}
	}
	for _, p := range listed {
		pkg := source[p.ImportPath]
		if pkg == nil {
			if p.Export == "" {
				continue
			}
			var err error
			if pkg, err = std.Import(p.ImportPath); err != nil {
				t.Fatalf("import %s: %v", p.ImportPath, err)
			}
		}
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
				if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
					s.ifaces = append(s.ifaces, it)
				}
			}
		}
	}
	return s
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// qualified names a function "pkg.Name" and a method "pkg.Recv.Name".
func qualified(fn *types.Func) string {
	if recv := receiver(fn); recv != nil {
		return fmt.Sprintf("%s.%s.%s", fn.Pkg().Name(), recv.Obj().Name(), fn.Name())
	}
	return fn.Pkg().Name() + "." + fn.Name()
}

// receiver is the named type a method is declared on, nil for a function.
func receiver(fn *types.Func) *types.Named {
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return nil
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

// declared lists the exported functions and methods of the internal/
// packages, in file order.
func (s *moduleScan) declared() []*types.Func {
	var out []*types.Func
	for _, pkg := range s.pkgs {
		if !strings.HasPrefix(pkg.Path(), "hetesim/internal/") {
			continue
		}
		scope := pkg.Scope()
		for _, name := range scope.Names() {
			switch obj := scope.Lookup(name).(type) {
			case *types.Func:
				if obj.Exported() {
					out = append(out, obj)
				}
			case *types.TypeName:
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					if m := named.Method(i); m.Exported() {
						out = append(out, m)
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Pos() < out[j].Pos() })
	return out
}

// satisfiesInterface reports whether fn is a method that some visible
// interface asks for and its receiver's type (or a pointer to it) has
// the whole method set of.
func (s *moduleScan) satisfiesInterface(fn *types.Func) bool {
	named := receiver(fn)
	if named == nil {
		return false
	}
	for _, it := range s.ifaces {
		if hasMethod(it, fn.Name()) && (types.Implements(named, it) || types.Implements(types.NewPointer(named), it)) {
			return true
		}
	}
	return false
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}

// position is the declaration's file:line relative to the module root.
func (s *moduleScan) position(fn *types.Func) string {
	pos := s.fset.Position(fn.Pos())
	if wd, err := os.Getwd(); err == nil {
		if rel, err := filepath.Rel(wd, pos.Filename); err == nil {
			pos.Filename = rel
		}
	}
	return fmt.Sprintf("%s:%d", pos.Filename, pos.Line)
}
