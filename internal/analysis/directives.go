package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// AllowDirective is one parsed //lint:allow comment: the checks it
// suppresses, the free-text reason that justifies the suppression, and where
// it sits. The repo's policy (enforced by the allowreason check) is that the
// reason is mandatory: a bare suppression hides an invariant violation
// without leaving the reviewer anything to audit.
type AllowDirective struct {
	// Position is the directive comment's own location.
	Position token.Position
	// Checks are the check IDs named by the first field ("all" for every
	// check).
	Checks []string
	// Reason is the free text following the check list ("" when missing).
	Reason string

	pos token.Pos // token position for reporting
}

// directiveIndex records, per file and line, which checks a //lint:allow
// comment suppresses, plus the parsed directive list for audit tooling
// (proteus-lint -allows) and the allowreason check. A trailing directive
// suppresses its own line; a directive alone on a line suppresses the line
// directly below it (so it can sit above the offending statement).
type directiveIndex struct {
	byFile map[string]map[int]map[string]bool
	list   []AllowDirective
}

func newDirectiveIndex() *directiveIndex {
	return &directiveIndex{byFile: make(map[string]map[int]map[string]bool)}
}

// allowPrefix is the directive marker. The comment form is
//
//	//lint:allow check1,check2 reason free text
//
// The special check name "all" suppresses every check on the line. The
// reason is required by the allowreason check.
const allowPrefix = "//lint:allow"

// collect scans a parsed file's comments for directives. src is the file's
// source bytes, used to tell trailing directives from standalone ones.
func (idx *directiveIndex) collect(fset *token.FileSet, f *ast.File, src []byte) {
	for _, group := range f.Comments {
		for _, c := range group.List {
			rest, ok := strings.CutPrefix(c.Text, allowPrefix)
			if !ok || (rest != "" && rest[0] != ' ' && rest[0] != '\t') {
				continue
			}
			fields := strings.Fields(rest)
			if len(fields) == 0 {
				continue
			}
			pos := fset.Position(c.Pos())
			line := pos.Line
			if standaloneComment(fset, c, src) {
				line++
			}
			byLine := idx.byFile[pos.Filename]
			if byLine == nil {
				byLine = make(map[int]map[string]bool)
				idx.byFile[pos.Filename] = byLine
			}
			checks := byLine[line]
			if checks == nil {
				checks = make(map[string]bool)
				byLine[line] = checks
			}
			// Only the first field names checks; the rest is the free-text
			// reason.
			var names []string
			for _, name := range strings.Split(fields[0], ",") {
				if name != "" {
					checks[name] = true
					names = append(names, name)
				}
			}
			reason := strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(rest), fields[0]))
			idx.list = append(idx.list, AllowDirective{
				Position: pos,
				Checks:   names,
				Reason:   reason,
				pos:      c.Pos(),
			})
		}
	}
}

// standaloneComment reports whether only whitespace precedes the comment on
// its line (i.e. it is not trailing a statement).
func standaloneComment(fset *token.FileSet, c *ast.Comment, src []byte) bool {
	pos := fset.Position(c.Pos())
	if pos.Offset > len(src) {
		return false
	}
	lineStart := pos.Offset - (pos.Column - 1)
	if lineStart < 0 {
		return false
	}
	return strings.TrimSpace(string(src[lineStart:pos.Offset])) == ""
}

// allows reports whether check is suppressed at file:line. The allowreason
// check itself can never be suppressed: the whole point of that check is that
// every directive carries an auditable reason, and letting a reasonless
// directive suppress its own audit would defeat it.
func (idx *directiveIndex) allows(file string, line int, check string) bool {
	if check == "allowreason" {
		return false
	}
	checks := idx.byFile[file][line]
	return checks != nil && (checks[check] || checks["all"])
}

func sortDirectives(ds []AllowDirective) {
	sort.Slice(ds, func(i, j int) bool {
		a, b := ds[i].Position, ds[j].Position
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		return a.Column < b.Column
	})
}

// CollectDirectives gathers every //lint:allow directive of the given
// packages in deterministic order; proteus-lint -allows prints this list so
// suppressions stay auditable in one place.
func CollectDirectives(pkgs []*Package) []AllowDirective {
	var out []AllowDirective
	for _, pkg := range pkgs {
		out = append(out, pkg.directives.list...)
	}
	sortDirectives(out)
	return out
}

// AllowReason enforces the suppression-hygiene half of the directive
// contract: every //lint:allow must say why. A suppression without a reason
// is indistinguishable from a silenced bug.
type AllowReason struct{}

// Name implements ModuleChecker.
func (AllowReason) Name() string { return "allowreason" }

// Doc implements ModuleChecker.
func (AllowReason) Doc() string {
	return "require every //lint:allow directive to carry a free-text reason"
}

// RunModule implements ModuleChecker.
func (AllowReason) RunModule(mp *ModulePass) {
	for _, d := range CollectDirectives(mp.Pkgs) {
		if d.Reason == "" {
			mp.Reportf(d.pos,
				"//lint:allow %s has no reason; append free text explaining why the suppression is sound",
				strings.Join(d.Checks, ","))
		}
	}
}
