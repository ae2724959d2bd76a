package analysis

import (
	"fmt"
	"io"
	"strings"
)

// WriteText writes the path:line:col report, one finding per line.
func WriteText(w io.Writer, findings []Finding) error {
	for _, f := range findings {
		if _, err := fmt.Fprintln(w, f); err != nil {
			return err
		}
	}
	return nil
}

// WriteAllows writes the audit listing of every //lint:allow directive:
// file:line, the suppressed checks, and the reason. proteus-lint -allows
// prints this so the repo's complete suppression surface is reviewable in
// one place.
func WriteAllows(w io.Writer, directives []AllowDirective, rel func(string) string) error {
	for _, d := range directives {
		reason := d.Reason
		if reason == "" {
			reason = "(no reason — fails the allowreason check)"
		}
		if _, err := fmt.Fprintf(w, "%s:%d: %s — %s\n",
			rel(d.Position.Filename), d.Position.Line, strings.Join(d.Checks, ","), reason); err != nil {
			return err
		}
	}
	return nil
}
