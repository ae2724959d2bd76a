package proteus

import (
	"encoding/json"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// TestDocReferences checks every backticked repository path and Go
// identifier in the top-level documents. A token that starts with one of the
// tree's top-level directories must name a file or directory that exists,
// and a `file.go:N` reference must name a line inside that file. A token
// whose first dot-separated segment names an internal/ package must resolve:
// either it is a per-layer row of BENCHMARK.json (`lp.solve_us`), or the
// next segment is a top-level declaration in the package's non-test files
// and each further one a field or method of what precedes it
// (`simulation.Engine.Reschedule`). The first word of a code span is the one
// checked, so `cmd/proteus-bench -experiment x` checks cmd/proteus-bench, and
// a trailing call (`lp.Solve(p)`) is ignored. Fenced code blocks are skipped.
// bench/README.md is not read. A ROADMAP citation (`ROADMAP item N`,
// `ROADMAP N(x)`) in these documents or in any non-test .go file must name
// an item of ROADMAP.md's numbered list, and the item must have step (x).
func TestDocReferences(t *testing.T) {
	prefixes := []string{"internal/", "cmd/", "configs/", "examples/", "bench/", ".github/"}
	span := regexp.MustCompile("`([^`]+)`")
	lineRef := regexp.MustCompile(`^(.+\.go):(\d+)$`)
	identRef := regexp.MustCompile(`^([a-z][a-z0-9]*)((?:\.[A-Za-z_][A-Za-z0-9_]*)+)(?:\(.*\))?$`)
	rows := benchmarkRows(t)
	items := roadmapItems(t)
	pkgs := map[string]*pkgDecls{}
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md", "configs/README.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		checkRoadmapCitations(t, doc, string(data), items)
		text := blankFences(string(data))
		for _, m := range span.FindAllStringSubmatchIndex(text, -1) {
			words := strings.Fields(text[m[2]:m[3]])
			if len(words) == 0 {
				continue
			}
			tok, at := words[0], doc+":"+strconv.Itoa(1+strings.Count(text[:m[0]], "\n"))
			if r := identRef.FindStringSubmatch(tok); r != nil && !hasAnyPrefix(tok, prefixes) {
				segs := strings.Split(r[2], ".")[1:]
				if rows[r[1]+r[2]] || fileExtensions[segs[len(segs)-1]] {
					continue
				}
				dir := filepath.Join("internal", r[1])
				if _, err := os.Stat(dir); err != nil {
					continue
				}
				if pkgs[dir] == nil {
					pkgs[dir] = parseDecls(t, dir)
				}
				if err := pkgs[dir].resolve(segs); err != "" {
					t.Errorf("%s: `%s`: %s", at, tok, err)
				}
				continue
			}
			if !hasAnyPrefix(tok, prefixes) {
				continue
			}
			path, line := tok, 0
			if r := lineRef.FindStringSubmatch(tok); r != nil {
				path, line = r[1], atoi(r[2])
			}
			if _, err := os.Stat(path); err != nil {
				t.Errorf("%s: `%s`: no such file or directory", at, tok)
				continue
			}
			if line > 0 {
				src, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if n := strings.Count(string(src), "\n"); line > n {
					t.Errorf("%s: `%s`: %s has %d lines", at, tok, path, n)
				}
			}
		}
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err == nil {
			checkRoadmapCitations(t, path, string(src), items)
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}

// roadmapCitation matches `ROADMAP item 12`, `ROADMAP 8(c)` and the like,
// across a line break in prose or in a // comment.
var roadmapCitation = regexp.MustCompile(`ROADMAP(?:\s|//)+(?:items?(?:\s|//)+)?(\d+)(?:\(([a-z])\))?`)

// roadmapItems returns the text of each item of ROADMAP.md's numbered list,
// by number: from its "N. " line to the next item's.
func roadmapItems(t *testing.T) map[int]string {
	t.Helper()
	data, err := os.ReadFile("ROADMAP.md")
	if err != nil {
		t.Fatal(err)
	}
	start := regexp.MustCompile(`(?m)^(\d+)\. `)
	marks := start.FindAllStringSubmatchIndex(string(data), -1)
	items := map[int]string{}
	for i, m := range marks {
		end := len(data)
		if i+1 < len(marks) {
			end = marks[i+1][0]
		}
		items[atoi(string(data[m[2]:m[3]]))] = string(data[m[0]:end])
	}
	return items
}

// checkRoadmapCitations reports every ROADMAP citation in text that names
// no item, or a step the item does not have.
func checkRoadmapCitations(t *testing.T, name, text string, items map[int]string) {
	t.Helper()
	for _, m := range roadmapCitation.FindAllStringSubmatchIndex(text, -1) {
		at := name + ":" + strconv.Itoa(1+strings.Count(text[:m[0]], "\n"))
		item, ok := items[atoi(text[m[2]:m[3]])]
		switch {
		case !ok:
			t.Errorf("%s: ROADMAP.md has no item %s", at, text[m[2]:m[3]])
		case m[4] >= 0 && !strings.Contains(item, "("+text[m[4]:m[5]]+")"):
			t.Errorf("%s: ROADMAP.md item %s has no step (%s)", at, text[m[2]:m[3]], text[m[4]:m[5]])
		}
	}
}

// blankFences replaces every line inside a ``` fence, fences included, with
// an empty line, so inline code spans pair up and line numbers still hold.
func blankFences(text string) string {
	lines := strings.Split(text, "\n")
	in := false
	for i, l := range lines {
		fence := strings.HasPrefix(strings.TrimSpace(l), "```")
		if in || fence {
			lines[i] = ""
		}
		if fence {
			in = !in
		}
	}
	return strings.Join(lines, "\n")
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

func atoi(s string) int {
	n, _ := strconv.Atoi(s)
	return n
}

// fileExtensions are last segments that make `pkg.ext` a file name, not an
// identifier (`report.html`).
var fileExtensions = map[string]bool{"go": true, "json": true, "jsonl": true, "md": true, "html": true, "csv": true, "txt": true}

// benchmarkRows returns the per-layer metric names BENCHMARK.json declares.
func benchmarkRows(t *testing.T) map[string]bool {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		PerLayer []struct{ Name string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, r := range spec.PerLayer {
		rows[r.Name] = true
	}
	return rows
}

// pkgDecls is what a package's non-test files declare at the top level:
// every name, the type declarations, and each type's methods.
type pkgDecls struct {
	names   map[string]bool
	types   map[string]*ast.TypeSpec
	methods map[string]map[string]bool // receiver type name → method names
}

func parseDecls(t *testing.T, dir string) *pkgDecls {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	p := &pkgDecls{names: map[string]bool{}, types: map[string]*ast.TypeSpec{}, methods: map[string]map[string]bool{}}
	fset := token.NewFileSet()
	for _, file := range files {
		if strings.HasSuffix(file, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					p.names[d.Name.Name] = true
					continue
				}
				recv := typeName(d.Recv.List[0].Type)
				if p.methods[recv] == nil {
					p.methods[recv] = map[string]bool{}
				}
				p.methods[recv][d.Name.Name] = true
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						p.names[s.Name.Name] = true
						p.types[s.Name.Name] = s
					case *ast.ValueSpec:
						for _, n := range s.Names {
							p.names[n.Name] = true
						}
					}
				}
			}
		}
	}
	return p
}

// resolve checks that segs[0] is declared in the package and each further
// segment is a field or method of the type before it; it returns what did
// not resolve, or "".
func (p *pkgDecls) resolve(segs []string) string {
	if !p.names[segs[0]] {
		return segs[0] + " is not declared"
	}
	cur := segs[0]
	for _, seg := range segs[1:] {
		if cur == "" {
			return "cannot look inside what precedes " + seg
		}
		if p.methods[cur][seg] {
			cur = ""
			continue
		}
		next, ok := p.field(cur, seg)
		if !ok {
			return seg + " is neither a field nor a method of " + cur
		}
		cur = next
	}
	return ""
}

// field looks up field (or interface method) name of type typ and returns
// the name of the field's type when the package declares it ("" otherwise).
// An embedded field is named by its type; promoted members are not followed.
func (p *pkgDecls) field(typ, name string) (string, bool) {
	spec := p.types[typ]
	if spec == nil {
		return "", false
	}
	var fields *ast.FieldList
	switch t := spec.Type.(type) {
	case *ast.StructType:
		fields = t.Fields
	case *ast.InterfaceType:
		fields = t.Methods
	default:
		return "", false
	}
	for _, f := range fields.List {
		next := typeName(f.Type)
		names := []string{next}
		if len(f.Names) > 0 {
			names = names[:0]
			for _, n := range f.Names {
				names = append(names, n.Name)
			}
		}
		if slices.Contains(names, name) {
			if p.types[next] == nil {
				next = ""
			}
			return next, true
		}
	}
	return "", false
}

// typeName is the name of the type expression x refers to, looking through
// pointers, slices and type arguments ("" for anything else).
func typeName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.Ident:
			return e.Name
		case *ast.StarExpr:
			x = e.X
		case *ast.ArrayType:
			x = e.Elt
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		default:
			return ""
		}
	}
}
