package proteus

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestSurface pins the repository's public surface to surface.txt: the root
// package's exported names, proteus-sim's JSON keys, proteusd's flags and the
// exported fields of every exported *Config / *Options struct, all read from
// the source with go/parser. Growing the surface is a reviewed edit of
// surface.txt; so is shrinking it.
//
// The root package is the module's outside view, and the programs under
// examples/ are its outside callers: a facade name stays only if a file
// under examples/ names it, or if it is a parameter or result type of a
// facade function that one names. The commands import the packages that
// own the code.
//
// Every field line carries one reason, which must resolve. A reason ending
// in .go is a non-test file outside the field's package that sets the field
// in a keyed literal of the struct, spelled through its import or a facade
// alias. Any other reason names a function that varies the field: a test,
// or an experiment of internal/experiments. Its body, or a test helper of
// its directory that it calls, must set the field by name (a keyed literal
// element or an assignment); without type information that is as close to
// "varies it" as go/parser gets.
func TestSurface(t *testing.T) {
	m := parseModule(t)
	got := m.surface(t)
	want, reasons := readSurface(t, "surface.txt")
	if !slices.IsSorted(want) {
		t.Error("surface.txt is not sorted")
	}
	for _, e := range diffSorted(got, want) {
		t.Errorf("surface.txt %s", e)
	}
	for _, e := range got {
		reason, ok := reasons[e]
		switch {
		case !strings.HasPrefix(e, "field ") || !slices.Contains(want, e):
		case !ok:
			t.Errorf("surface.txt: %s: no reason", e)
		default:
			if err := m.resolveReason(strings.TrimPrefix(e, "field "), reason); err != "" {
				t.Errorf("surface.txt: %s %s: %s", e, reason, err)
			}
		}
	}
	for _, name := range m.unusedFacade() {
		t.Errorf("surface.txt: facade %s: no file under examples/ names it, and no facade function one names takes or returns it", name)
	}
	t.Logf("surface: %d entries", len(got))
}

// unusedFacade returns the root package's exported names that break the
// facade rule, sorted.
func (m *module) unusedFacade() []string {
	named := map[string]bool{}
	for p, f := range m.files {
		local, ok := importNames(f)["proteus"]
		if !ok || !strings.HasPrefix(p, "examples/") {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if sel, ok := n.(*ast.SelectorExpr); ok {
				if id, ok := sel.X.(*ast.Ident); ok && id.Name == local {
					named[sel.Sel.Name] = true
				}
			}
			return true
		})
	}
	kept := maps.Clone(named)
	var names []string
	for _, p := range m.pkgFiles(".") {
		f := m.files[p]
		names = append(names, topLevelNames(f)...)
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if !ok || d.Recv != nil || !named[d.Name.Name] {
				continue
			}
			// A facade type in a facade signature is a bare identifier;
			// a selector names another package's type.
			ast.Inspect(d.Type, func(n ast.Node) bool {
				switch x := n.(type) {
				case *ast.SelectorExpr:
					return false
				case *ast.Ident:
					kept[x.Name] = true
				}
				return true
			})
		}
	}
	var out []string
	for _, name := range names {
		if ast.IsExported(name) && !kept[name] {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// module is every parsed .go file of the repository, bench/ included, keyed
// by slash-separated path, plus the directory of each package that declares
// an option struct, keyed by the package's short name (filled by surface).
type module struct {
	fset  *token.FileSet
	files map[string]*ast.File
	dirs  map[string]string
}

func parseModule(t *testing.T) *module {
	t.Helper()
	m := &module{fset: token.NewFileSet(), files: map[string]*ast.File{}, dirs: map[string]string{}}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		f, err := parser.ParseFile(m.fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		m.files[filepath.ToSlash(p)] = f
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pkgFiles returns the sorted non-test files directly inside dir.
func (m *module) pkgFiles(dir string) []string {
	var out []string
	for p := range m.files {
		if path.Dir(p) == dir && !strings.HasSuffix(p, "_test.go") {
			out = append(out, p)
		}
	}
	slices.Sort(out)
	return out
}

// shortName names the package in dir as surface.txt does: "proteus" for the
// root, the directory's base name otherwise.
func shortName(dir string) string {
	if dir == "." {
		return "proteus"
	}
	return path.Base(dir)
}

// importPath is the import path of the package in dir.
func importPath(dir string) string {
	if dir == "." {
		return "proteus"
	}
	return "proteus/" + dir
}

// surface builds the sorted surface list.
func (m *module) surface(t *testing.T) []string {
	t.Helper()
	var out []string
	for _, p := range m.pkgFiles(".") {
		for _, name := range topLevelNames(m.files[p]) {
			if ast.IsExported(name) {
				out = append(out, "facade "+name)
			}
		}
	}
	for _, key := range m.simKeys(t) {
		out = append(out, "key proteus-sim "+key)
	}
	for _, name := range m.daemonFlags() {
		out = append(out, "flag proteusd -"+name)
	}
	for p, f := range m.files {
		if strings.HasSuffix(p, "_test.go") || strings.HasPrefix(p, "bench/") {
			continue
		}
		dir := path.Dir(p)
		forEachStruct(f, func(name string, st *ast.StructType) {
			if !ast.IsExported(name) || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
				return
			}
			short := shortName(dir)
			if other, ok := m.dirs[short]; ok && other != dir {
				t.Fatalf("packages %s and %s share the name %s", other, dir, short)
			}
			m.dirs[short] = dir
			for _, fld := range st.Fields.List {
				for _, n := range fld.Names {
					if n.IsExported() {
						out = append(out, "field "+short+"."+name+"."+n.Name)
					}
				}
			}
		})
	}
	slices.Sort(out)
	return out
}

func topLevelNames(f *ast.File) []string {
	var out []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil {
				out = append(out, d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					out = append(out, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						out = append(out, n.Name)
					}
				}
			}
		}
	}
	return out
}

// forEachStruct calls fn for every top-level struct type declaration of f.
func forEachStruct(f *ast.File, fn func(name string, st *ast.StructType)) {
	for _, decl := range f.Decls {
		d, ok := decl.(*ast.GenDecl)
		if !ok || d.Tok != token.TYPE {
			continue
		}
		for _, spec := range d.Specs {
			s := spec.(*ast.TypeSpec)
			if st, ok := s.Type.(*ast.StructType); ok && s.Assign == 0 {
				fn(s.Name.Name, st)
			}
		}
	}
}

// simKeys lists the JSON keys proteus-sim's config accepts, dotted by
// nesting: the json tags of its `config` struct, descending into every field
// whose type is a struct the command declares.
func (m *module) simKeys(t *testing.T) []string {
	t.Helper()
	structs := map[string]*ast.StructType{}
	for _, p := range m.pkgFiles("cmd/proteus-sim") {
		forEachStruct(m.files[p], func(name string, st *ast.StructType) { structs[name] = st })
	}
	if structs["config"] == nil {
		t.Fatal("cmd/proteus-sim declares no config struct")
	}
	var out []string
	var walk func(prefix string, st *ast.StructType)
	walk = func(prefix string, st *ast.StructType) {
		for _, fld := range st.Fields.List {
			if fld.Tag == nil {
				continue
			}
			tag, _ := strconv.Unquote(fld.Tag.Value)
			key, _, _ := strings.Cut(jsonTag(tag), ",")
			if key == "" || key == "-" {
				continue
			}
			if inner := structs[typeName(fld.Type)]; inner != nil {
				walk(prefix+key+".", inner)
				continue
			}
			out = append(out, prefix+key)
		}
	}
	walk("", structs["config"])
	return out
}

// jsonTag is reflect.StructTag.Get("json") on a raw tag string.
func jsonTag(tag string) string {
	for _, part := range strings.Fields(tag) {
		if k, v, ok := strings.Cut(part, ":"); ok && k == "json" {
			s, _ := strconv.Unquote(v)
			return s
		}
	}
	return ""
}

// daemonFlags lists the flags proteusd defines: the first argument of every
// flag.X("name", ...) call in its non-test files.
func (m *module) daemonFlags() []string {
	var out []string
	for _, p := range m.pkgFiles("cmd/proteusd") {
		ast.Inspect(m.files[p], func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			if !strings.HasPrefix(exprString(call.Fun), "flag.") {
				return true
			}
			if lit, ok := call.Args[0].(*ast.BasicLit); ok && lit.Kind == token.STRING {
				name, _ := strconv.Unquote(lit.Value)
				out = append(out, name)
			}
			return true
		})
	}
	return out
}

// readSurface reads surface.txt: one entry per line, a field entry followed
// by its reason; blank lines and # comments are skipped.
func readSurface(t *testing.T, name string) (entries []string, reasons map[string]string) {
	t.Helper()
	f, err := os.Open(name)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	reasons = map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		words := strings.Fields(sc.Text())
		if len(words) == 0 || strings.HasPrefix(words[0], "#") {
			continue
		}
		n := 2 // facade NAME, field ID REASON
		if words[0] == "key" || words[0] == "flag" {
			n = 3 // key proteus-sim KEY, flag proteusd -NAME
		}
		entry := strings.Join(words[:min(n, len(words))], " ")
		if words[0] == "field" && len(words) > n {
			reasons[entry] = strings.Join(words[n:], " ")
		}
		entries = append(entries, entry)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return entries, reasons
}

// diffSorted reports the entries only one of two sorted lists holds.
func diffSorted(got, want []string) []string {
	var out []string
	i, j := 0, 0
	for i < len(got) || j < len(want) {
		switch {
		case j == len(want) || (i < len(got) && got[i] < want[j]):
			out = append(out, "lacks "+got[i])
			i++
		case i == len(got) || want[j] < got[i]:
			out = append(out, "lists "+want[j]+", which does not exist")
			j++
		default:
			i++
			j++
		}
	}
	return out
}

// resolveReason checks the reason of field id ("core.Config.Seed"); it
// returns what is wrong, or "".
func (m *module) resolveReason(id, reason string) string {
	parts := strings.Split(id, ".")
	dir, typ, field := m.dirs[parts[0]], parts[1], parts[2]
	if !strings.HasSuffix(reason, ".go") {
		return m.varies(reason, field)
	}
	f := m.files[reason]
	switch {
	case f == nil:
		return "no such file"
	case strings.HasSuffix(reason, "_test.go"):
		return "a test file is not a caller; name the test"
	case path.Dir(reason) == dir:
		return "the field's own package is not a caller"
	}
	spellings := m.spellings(f, path.Dir(reason), importPath(dir), typ)
	set := false
	ast.Inspect(f, func(n ast.Node) bool {
		if lit, ok := n.(*ast.CompositeLit); ok && spellings[exprString(lit.Type)] {
			for _, el := range lit.Elts {
				if kv, ok := el.(*ast.KeyValueExpr); ok && exprString(kv.Key) == field {
					set = true
				}
			}
		}
		return !set
	})
	if !set {
		return "sets no " + field + " in a literal of " + typ
	}
	return ""
}

// spellings returns how file f, in package dir fileDir, writes the struct
// typ of package pkgPath: through its import ("core.Config"), or through a
// facade alias of it ("proteus.SystemConfig", bare inside the root package).
func (m *module) spellings(f *ast.File, fileDir, pkgPath, typ string) map[string]bool {
	out := map[string]bool{}
	local := importNames(f)
	if name, ok := local[pkgPath]; ok {
		out[name+"."+typ] = true
	}
	for _, p := range m.pkgFiles(".") {
		root := m.files[p]
		rootImports := importNames(root)
		for _, decl := range root.Decls {
			d, ok := decl.(*ast.GenDecl)
			if !ok || d.Tok != token.TYPE {
				continue
			}
			for _, spec := range d.Specs {
				s := spec.(*ast.TypeSpec)
				if s.Assign == 0 || exprString(s.Type) != rootImports[pkgPath]+"."+typ {
					continue
				}
				if fileDir == "." {
					out[s.Name.Name] = true
				} else if name, ok := local["proteus"]; ok {
					out[name+"."+s.Name.Name] = true
				}
			}
		}
	}
	return out
}

// importNames maps each import path of f to the name the file uses for it.
func importNames(f *ast.File) map[string]string {
	out := map[string]string{}
	for _, imp := range f.Imports {
		p, _ := strconv.Unquote(imp.Path.Value)
		name := path.Base(p)
		if imp.Name != nil {
			name = imp.Name.Name
		}
		out[p] = name
	}
	return out
}

// varies checks that fn is a test or an experiment and that it, or a test
// helper of its directory it calls, sets field by name.
func (m *module) varies(fn, field string) string {
	found := false
	for p, f := range m.files {
		if !strings.HasSuffix(p, "_test.go") && path.Dir(p) != "internal/experiments" {
			continue
		}
		for _, decl := range f.Decls {
			if d, ok := decl.(*ast.FuncDecl); ok && d.Recv == nil && d.Name.Name == fn {
				found = true
				if m.setsByName(path.Dir(p), d, field, map[string]bool{}) {
					return ""
				}
			}
		}
	}
	if !found {
		return "no test or experiment of that name"
	}
	return "neither it nor what it calls sets " + field
}

// setsByName reports whether fn, or a function of dir's test files it
// calls, sets field in a keyed literal element or an assignment.
func (m *module) setsByName(dir string, fn *ast.FuncDecl, field string, seen map[string]bool) bool {
	seen[fn.Name.Name] = true
	set := false
	var calls []string
	ast.Inspect(fn.Body, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.KeyValueExpr:
			set = set || exprString(x.Key) == field
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok && sel.Sel.Name == field {
					set = true
				}
			}
		case *ast.CallExpr:
			if id, ok := x.Fun.(*ast.Ident); ok && !seen[id.Name] {
				calls = append(calls, id.Name)
			}
		}
		return !set
	})
	if set {
		return true
	}
	for p, f := range m.files {
		if path.Dir(p) != dir || !strings.HasSuffix(p, "_test.go") {
			continue
		}
		for _, decl := range f.Decls {
			d, ok := decl.(*ast.FuncDecl)
			if ok && d.Recv == nil && slices.Contains(calls, d.Name.Name) && !seen[d.Name.Name] &&
				m.setsByName(dir, d, field, seen) {
				return true
			}
		}
	}
	return false
}

// exprString spells an identifier or a pkg.Name selector, looking through
// a pointer; "" for anything else.
func exprString(x ast.Expr) string {
	switch e := x.(type) {
	case *ast.Ident:
		return e.Name
	case *ast.StarExpr:
		return exprString(e.X)
	case *ast.SelectorExpr:
		if id, ok := e.X.(*ast.Ident); ok {
			return id.Name + "." + e.Sel.Name
		}
	}
	return ""
}
