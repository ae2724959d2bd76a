package proteus

import (
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestDocReferences checks every backticked repository path in the
// top-level documents: a token that starts with one of the tree's
// top-level directories must name a file or directory that exists, and a
// `file.go:N` reference must name a line inside that file. The first word
// of a code span is the one checked, so `cmd/proteus-bench -experiment x`
// checks cmd/proteus-bench. Fenced code blocks are skipped.
// bench/README.md is not read.
func TestDocReferences(t *testing.T) {
	prefixes := []string{"internal/", "cmd/", "configs/", "examples/", "bench/", ".github/"}
	span := regexp.MustCompile("`([^`]+)`")
	lineRef := regexp.MustCompile(`^(.+\.go):(\d+)$`)
	for _, doc := range []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "PAPER.md", "configs/README.md"} {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := blankFences(string(data))
		for _, m := range span.FindAllStringSubmatchIndex(text, -1) {
			words := strings.Fields(text[m[2]:m[3]])
			if len(words) == 0 || !hasAnyPrefix(words[0], prefixes) {
				continue
			}
			tok, at := words[0], doc+":"+strconv.Itoa(1+strings.Count(text[:m[0]], "\n"))
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
