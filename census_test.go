package naplet

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// exemptKnobs are the fields TestEveryKnobHasAMover lets stay without a
// syntactic mover. An empty value marks a deployment setting: where and as
// whom a node runs is the operator's to say even when every test takes the
// default. A non-empty value names the option function that forwards into
// the field; the census then requires a call of that function instead.
var exemptKnobs = map[string]string{
	"..Config.Policy": "",
	"..Config.Core":   "WithCore",
}

// knobStruct is one struct type named *Config or *Options, declared in a
// non-test file outside bench/.
type knobStruct struct {
	dir, name string
	fields    []string
}

type parsedFile struct {
	path    string
	dir     string // slash-separated, relative to the repo root; "." for the root
	test    bool
	imports map[string]string // local package name -> dir
	ast     *ast.File
}

// TestEveryKnobHasAMover is the configuration census. A field of a *Config
// or *Options struct is a knob, and a knob earns its place only if something
// other than the code that reads it sets it: a test, the benchmark, or
// another package. The census is syntactic (go/parser, no type checker): a
// mover is a key in a composite literal of the struct's type, or an
// assignment `x.Field = ...` in a file that can name the type (the
// declaring package's tests, or an importer), anywhere but the declaring
// package's own non-test files. A field whose only writer is its own
// defaulting code fails here; make it a constant next to its use.
func TestEveryKnobHasAMover(t *testing.T) {
	files := parseTree(t)

	var structs []*knobStruct
	byField := map[string][]*knobStruct{}
	for _, f := range files {
		if f.test || f.dir == "bench" {
			continue
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok || !(strings.HasSuffix(ts.Name.Name, "Config") || strings.HasSuffix(ts.Name.Name, "Options")) {
				return true
			}
			ks := &knobStruct{dir: f.dir, name: ts.Name.Name}
			for _, fld := range st.Fields.List {
				names := fld.Names
				if names == nil { // embedded: the type's name is the field's
					if id, ok := fld.Type.(*ast.Ident); ok {
						names = []*ast.Ident{id}
					}
				}
				for _, id := range names {
					ks.fields = append(ks.fields, id.Name)
					byField[id.Name] = append(byField[id.Name], ks)
				}
			}
			structs = append(structs, ks)
			return true
		})
	}

	moved := map[string]bool{}  // "dir.Struct.Field"
	called := map[string]bool{} // "dir.Func", called from outside dir's own code
	for _, f := range files {
		outside := func(dir string) bool { return f.test || f.dir != dir }
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CallExpr:
				if dir, name, ok := f.resolve(n.Fun); ok && outside(dir) {
					called[dir+"."+name] = true
				}
			case *ast.CompositeLit:
				markLiteral(f, n, nil, outside, moved)
				return false
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					sel, ok := lhs.(*ast.SelectorExpr)
					if !ok {
						continue
					}
					for _, ks := range byField[sel.Sel.Name] {
						if outside(ks.dir) && (f.dir == ks.dir || f.importsDir(ks.dir)) {
							moved[ks.dir+"."+ks.name+"."+sel.Sel.Name] = true
						}
					}
				}
			}
			return true
		})
	}

	sort.Slice(structs, func(i, j int) bool {
		return structs[i].dir+"."+structs[i].name < structs[j].dir+"."+structs[j].name
	})
	total := 0
	seen := map[string]bool{}
	for _, ks := range structs {
		total += len(ks.fields)
		for _, fld := range ks.fields {
			key := ks.dir + "." + ks.name + "." + fld
			seen[key] = true
			via, exempt := exemptKnobs[key]
			switch {
			case moved[key] && exempt:
				t.Errorf("%s has a mover; drop it from exemptKnobs", key)
			case exempt && via != "" && !called[ks.dir+"."+via]:
				t.Errorf("%s: nothing outside %s's own code calls %s any more", key, ks.dir, via)
			case !moved[key] && !exempt && ast.IsExported(fld):
				t.Errorf("%s: nothing outside %s's own code sets it; make it a constant beside its use", key, ks.dir)
			}
		}
		t.Logf("%-28s %-18s %2d fields", ks.dir, ks.name, len(ks.fields))
	}
	for key := range exemptKnobs {
		if !seen[key] {
			t.Errorf("exemptKnobs names %s, which no longer exists", key)
		}
	}
	t.Logf("census: %d fields in %d *Config/*Options structs", total, len(structs))
}

// markLiteral records the keys of lit (and of the literals nested in it,
// whose elided types follow from the enclosing array, slice or map type) as
// movers of the struct it constructs. elided is the type lit takes when it
// names none.
func markLiteral(f *parsedFile, lit *ast.CompositeLit, elided ast.Expr, outside func(string) bool, moved map[string]bool) {
	typ := lit.Type
	if typ == nil {
		typ = elided
	}
	var elem ast.Expr
	switch tt := typ.(type) {
	case *ast.ArrayType:
		elem = tt.Elt
	case *ast.MapType:
		elem = tt.Value
	}
	if star, ok := elem.(*ast.StarExpr); ok {
		elem = star.X
	}
	dir, name, named := f.resolve(typ)
	for _, el := range lit.Elts {
		val := el
		if kv, ok := el.(*ast.KeyValueExpr); ok {
			val = kv.Value
			if id, ok := kv.Key.(*ast.Ident); ok && named && outside(dir) {
				moved[dir+"."+name+"."+id.Name] = true
			}
		}
		ast.Inspect(val, func(n ast.Node) bool {
			if inner, ok := n.(*ast.CompositeLit); ok {
				markLiteral(f, inner, elem, outside, moved)
				return false
			}
			return true
		})
	}
}

// resolve maps a type expression as written in f to the directory and name
// of the type it names: `Config` is the file's own package, `core.Config`
// goes through the import table.
func (f *parsedFile) resolve(typ ast.Expr) (dir, name string, ok bool) {
	switch tt := typ.(type) {
	case *ast.Ident:
		return f.dir, tt.Name, true
	case *ast.SelectorExpr:
		if pkg, isIdent := tt.X.(*ast.Ident); isIdent {
			if d, imported := f.imports[pkg.Name]; imported {
				return d, tt.Sel.Name, true
			}
		}
	}
	return "", "", false
}

func (f *parsedFile) importsDir(dir string) bool {
	for _, d := range f.imports {
		if d == dir {
			return true
		}
	}
	return false
}

// TestCoreKeepsGobOffTheMigrationPath: a connection's serialized form is the
// flat one of internal/core/state.go, for the migration blob and the journal
// record alike. The reflection codec it replaced compiled its engines anew
// for every blob — a third of a migration — so it must not drift back: no
// non-test file of internal/core imports encoding/gob.
func TestCoreKeepsGobOffTheMigrationPath(t *testing.T) {
	seen := 0
	for _, f := range parseTree(t) {
		if f.dir != "internal/core" || f.test {
			continue
		}
		seen++
		for _, imp := range f.ast.Imports {
			if imp.Path.Value == `"encoding/gob"` {
				t.Errorf("%s imports encoding/gob", f.path)
			}
		}
	}
	if seen == 0 {
		t.Fatal("no file of internal/core was parsed")
	}
}

// TestOnlyTheBenchImportsTimerwheel: protocol timeouts are runtime timers
// (time.AfterFunc), one way of doing it. internal/timerwheel survives only
// for the benchmark's timerwheel.schedule_cancel_ns row, so no non-test file
// outside bench/ may import it again.
func TestOnlyTheBenchImportsTimerwheel(t *testing.T) {
	const wheel = "internal/timerwheel"
	for _, f := range parseTree(t) {
		if f.test || f.dir == "bench" || f.dir == wheel {
			continue
		}
		if f.importsDir(wheel) {
			t.Errorf("%s imports %s: product timers are time.AfterFunc; the package stays only for bench/ until ROADMAP item 4 deletes it with its bench row", f.path, wheel)
		}
	}
}

// TestNoStdlibLogOutsideCmd: a *obs.Logger is every layer's one log input,
// and a nil one is silent. So no non-test file of the library — internal/
// and the root package — imports the standard library's log: only the
// programs under cmd/ and examples/ choose where lines go.
func TestNoStdlibLogOutsideCmd(t *testing.T) {
	seen := 0
	for _, f := range parseTree(t) {
		if f.test || !(f.dir == "." || strings.HasPrefix(f.dir, "internal/")) {
			continue
		}
		seen++
		for _, imp := range f.ast.Imports {
			if imp.Path.Value == `"log"` {
				t.Errorf("%s imports log; take a *obs.Logger instead", f.path)
			}
		}
	}
	if seen == 0 {
		t.Fatal("no library file was parsed")
	}
}

// TestNoBigIntArithmetic: the key exchange is X25519 from crypto/ecdh, so no
// non-test file — product, programs or bench/ — imports math/big, and the
// 2048-bit MODP arithmetic it replaced cannot come back unnoticed.
func TestNoBigIntArithmetic(t *testing.T) {
	seen := 0
	for _, f := range parseTree(t) {
		if f.test {
			continue
		}
		seen++
		for _, imp := range f.ast.Imports {
			if imp.Path.Value == `"math/big"` {
				t.Errorf("%s imports math/big", f.path)
			}
		}
	}
	if seen == 0 {
		t.Fatal("no file was parsed")
	}
}

// parseTree parses every Go file of the module: product, tests, examples
// and bench/ alike (the benchmark is a mover too).
func parseTree(t *testing.T) []*parsedFile {
	t.Helper()
	const module = "naplet"
	fset := token.NewFileSet()
	var files []*parsedFile
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		parsed, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		f := &parsedFile{
			path:    p,
			dir:     filepath.ToSlash(filepath.Dir(p)),
			test:    strings.HasSuffix(p, "_test.go"),
			imports: map[string]string{},
			ast:     parsed,
		}
		for _, imp := range parsed.Imports {
			ipath, _ := strconv.Unquote(imp.Path.Value)
			var dir string
			switch {
			case ipath == module:
				dir = "."
			case strings.HasPrefix(ipath, module+"/"):
				dir = strings.TrimPrefix(ipath, module+"/")
			default:
				continue
			}
			local := path.Base(ipath)
			if imp.Name != nil {
				local = imp.Name.Name
			}
			f.imports[local] = dir
		}
		files = append(files, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}
