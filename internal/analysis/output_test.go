package analysis

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"
)

// corpusReport runs the full corpus registry over packages in the given
// order (nil = as loaded) and returns the text report.
func corpusReport(t *testing.T, reorder func([]*Package) []*Package) string {
	t.Helper()
	mod, pkgs, err := LoadModule(corpusRoot, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if reorder != nil {
		pkgs = reorder(pkgs)
	}
	var b bytes.Buffer
	if err := WriteText(&b, corpusRegistry().RunModule(mod, pkgs)); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestEmitterDeterminism requires the text report to be byte-identical
// across repeated runs AND across shuffled package-load orders: checkers see
// packages sorted by import path and findings are globally sorted, so load
// order must never leak into a report CI diffs.
func TestEmitterDeterminism(t *testing.T) {
	text0 := corpusReport(t, nil)
	if text0 == "" {
		t.Fatal("corpus produced no findings")
	}

	reorders := map[string]func([]*Package) []*Package{
		"repeat": nil,
		"reversed": func(pkgs []*Package) []*Package {
			out := make([]*Package, len(pkgs))
			for i, p := range pkgs {
				out[len(pkgs)-1-i] = p
			}
			return out
		},
		"rotated": func(pkgs []*Package) []*Package {
			if len(pkgs) < 2 {
				return pkgs
			}
			return append(append([]*Package(nil), pkgs[len(pkgs)/2:]...), pkgs[:len(pkgs)/2]...)
		},
	}
	for name, reorder := range reorders {
		if text := corpusReport(t, reorder); text != text0 {
			t.Errorf("%s: text report diverged", name)
		}
	}
}

// TestWriteAllows pins the -allows audit surface: every directive appears
// with its checks and reason, deterministically ordered, and reasonless ones
// are called out.
func TestWriteAllows(t *testing.T) {
	_, pkgs, err := LoadModule(corpusRoot, []string{"./errcheck", "./allowreason"})
	if err != nil {
		t.Fatal(err)
	}
	dump := func() string {
		var b bytes.Buffer
		rel := func(fn string) string { return filepath.Base(fn) }
		if err := WriteAllows(&b, CollectDirectives(pkgs), rel); err != nil {
			t.Fatal(err)
		}
		return b.String()
	}
	first, second := dump(), dump()
	if first != second {
		t.Fatal("allows listing is not deterministic")
	}
	if !strings.Contains(first, "errcheck — suppression demo: best-effort cleanup") {
		t.Errorf("allows listing missing a reasoned directive:\n%s", first)
	}
	if !strings.Contains(first, "(no reason — fails the allowreason check)") {
		t.Errorf("allows listing does not call out reasonless directives:\n%s", first)
	}
	if strings.Count(first, "\n") < 5 {
		t.Errorf("allows listing too short:\n%s", first)
	}
}
