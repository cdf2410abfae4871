// Package linttest runs lint analyzers against testdata fixture packages
// and checks their diagnostics against expectations embedded in the
// fixtures, following the golang.org/x/tools/go/analysis/analysistest
// conventions (which this repo cannot depend on offline):
//
//	bad()  // want "regexp matching the diagnostic"
//
// A `// want` comment may carry several quoted regexps, each of which must
// be matched by a distinct diagnostic on that line. Every diagnostic the
// analyzer emits must be matched by a want, and every want must be matched
// by a diagnostic; anything else fails the test. Because fixture packages
// live under testdata/ they are invisible to ./... builds, but they are
// compiled and type-checked exactly like real code, so fixtures may import
// real integrade packages (sim, orb, protocol).
package linttest

import (
	"fmt"
	"go/token"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"integrade/internal/lint"
)

// want is one expected diagnostic.
type want struct {
	file    string
	line    int
	pattern *regexp.Regexp
	matched bool
}

// Run loads the fixture package at dir (relative to the calling test's
// package directory, e.g. "testdata/src/simclock") and asserts that the
// analyzer's post-suppression diagnostics exactly match the fixture's
// `// want` comments.
func Run(t *testing.T, a *lint.Analyzer, dir string) {
	t.Helper()
	pkgs, err := lint.Load("", "./"+strings.TrimPrefix(dir, "./"))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s loaded %d packages, want 1", dir, len(pkgs))
	}
	pkg := pkgs[0]

	wants, err := collectWants(pkg)
	if err != nil {
		t.Fatalf("fixture %s: %v", dir, err)
	}
	for _, d := range lint.Run(pkgs, []*lint.Analyzer{a}) {
		if !matchWant(wants, d) {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched want %q", w.file, w.line, w.pattern)
		}
	}
}

// matchWant marks and returns the first unmatched want covering d.
func matchWant(wants []*want, d lint.Diagnostic) bool {
	for _, w := range wants {
		if w.matched || w.line != d.Pos.Line || !strings.HasSuffix(d.Pos.Filename, w.file) {
			continue
		}
		if w.pattern.MatchString(d.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

// collectWants extracts `// want "..."` expectations from the fixture.
func collectWants(pkg *lint.Package) ([]*want, error) {
	var wants []*want
	for _, f := range pkg.Syntax {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				patterns, err := parseWant(strings.TrimPrefix(text, "want "))
				if err != nil {
					return nil, fmt.Errorf("%s: %w", pos, err)
				}
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						return nil, fmt.Errorf("%s: bad want pattern %q: %w", pos, p, err)
					}
					wants = append(wants, &want{
						file:    shortFile(pos),
						line:    pos.Line,
						pattern: re,
					})
				}
			}
		}
	}
	return wants, nil
}

// parseWant splits a want payload into its quoted regexps, accepting both
// double-quoted (Go escaping) and backquoted strings.
func parseWant(s string) ([]string, error) {
	var out []string
	for {
		s = strings.TrimSpace(s)
		if s == "" {
			return out, nil
		}
		switch s[0] {
		case '"':
			end := -1
			for i := 1; i < len(s); i++ {
				if s[i] == '\\' {
					i++
					continue
				}
				if s[i] == '"' {
					end = i
					break
				}
			}
			if end < 0 {
				return nil, fmt.Errorf("unterminated want string in %q", s)
			}
			unq, err := strconv.Unquote(s[:end+1])
			if err != nil {
				return nil, fmt.Errorf("bad want string %q: %w", s[:end+1], err)
			}
			out = append(out, unq)
			s = s[end+1:]
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated want string in %q", s)
			}
			out = append(out, s[1:end+1])
			s = s[end+2:]
		default:
			return nil, fmt.Errorf("want payload must be quoted regexps, got %q", s)
		}
	}
}

func shortFile(pos token.Position) string {
	if i := strings.LastIndexByte(pos.Filename, '/'); i >= 0 {
		return pos.Filename[i+1:]
	}
	return pos.Filename
}
