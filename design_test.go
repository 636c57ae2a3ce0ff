package ldr_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	// A test or fuzz target, optionally qualified by its package's path
	// suffix (`modelcheck.TestX`, `cmd/ldrsim.TestY`); a trailing * names
	// every test with that prefix.
	pinRe      = regexp.MustCompile(`\b(?:([a-z][a-z0-9/]*)\.)?((?:Test|Fuzz)[A-Z0-9]\w*)(\*?)`)
	makeRe     = regexp.MustCompile("`make ([a-z][a-z0-9-]*)")
	declRe     = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz)\w*)\(`)
	targetRe   = regexp.MustCompile(`(?m)^([a-z][a-z0-9-]*):`)
	tableHead  = "## Invariants, and the test that pins each"
	layoutHead = "## Package layout"
)

// TestDesignNamesRealTests holds DESIGN.md's invariants table to the code:
// every Test…/Fuzz… name a row cites is declared in a _test.go file, in the
// named package when the name is qualified, and every `make` target it
// cites is in the Makefile.
func TestDesignNamesRealTests(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	makefile, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	targets := map[string]bool{}
	for _, m := range targetRe.FindAllStringSubmatch(string(makefile), -1) {
		targets[m[1]] = true
	}

	declared := map[string][]string{} // test name → directories declaring it
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range declRe.FindAllStringSubmatch(string(src), -1) {
			declared[m[1]] = append(declared[m[1]], filepath.ToSlash(filepath.Dir(path)))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	declaredIn := func(pkg, name string, prefix bool) bool {
		for decl, dirs := range declared {
			if decl != name && !(prefix && strings.HasPrefix(decl, name)) {
				continue
			}
			for _, dir := range dirs {
				if pkg == "" || dir == pkg || strings.HasSuffix(dir, "/"+pkg) {
					return true
				}
			}
		}
		return false
	}

	_, table, ok := strings.Cut(string(design), tableHead)
	if !ok {
		t.Fatalf("DESIGN.md has no %q section", tableHead)
	}
	names := 0
	for _, line := range strings.Split(table, "\n")[1:] {
		if strings.HasPrefix(line, "## ") {
			break
		}
		if !strings.HasPrefix(line, "|") {
			continue
		}
		row, _, _ := strings.Cut(strings.TrimPrefix(line, "| "), " |")
		for _, m := range pinRe.FindAllStringSubmatch(line, -1) {
			names++
			if !declaredIn(m[1], m[2], m[3] == "*") {
				t.Errorf("row %q names %s, which no _test.go of that package declares", row, m[0])
			}
		}
		for _, m := range makeRe.FindAllStringSubmatch(line, -1) {
			if !targets[m[1]] {
				t.Errorf("row %q names `make %s`, which the Makefile lacks", row, m[1])
			}
		}
	}
	if names < 50 {
		t.Errorf("found only %d test names in the invariants table; is it still a table under %q?", names, tableHead)
	}
}

// TestDesignLayoutNamesRealPackages holds DESIGN.md's package layout to
// the tree: every path its indented block names, brace lists expanded,
// exists, and every directory under internal/, cmd/ and examples/ that
// holds a non-test .go file is named.
func TestDesignLayoutNamesRealPackages(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), layoutHead+"\n")
	if !ok {
		t.Fatalf("DESIGN.md has no %q section", layoutHead)
	}
	var block []string
	for _, line := range strings.Split(section, "\n") {
		if strings.HasPrefix(line, "    ") {
			block = append(block, line)
		} else if len(block) > 0 {
			break
		}
	}

	named := map[string]bool{}
	for _, word := range layoutWords(strings.Join(block, "\n")) {
		for _, path := range expandBraces(word) {
			path = strings.TrimSuffix(path, "/")
			named[path] = true
			if _, err := os.Stat(path); err != nil {
				t.Errorf("the package layout names %s, which does not exist", path)
			}
		}
	}
	if len(named) < 30 {
		t.Errorf("found only %d paths in the package layout; is it still an indented block under %q?", len(named), layoutHead)
	}

	for _, root := range []string{"internal", "cmd", "examples"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return nil
			}
			if dir := filepath.ToSlash(filepath.Dir(path)); !named[dir] {
				t.Errorf("the package layout does not name %s", dir)
				named[dir] = true // one error per directory
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
}

// layoutWords splits a layout block at whitespace outside braces, so a
// brace list that wraps across lines stays one word.
func layoutWords(block string) []string {
	var words []string
	var word strings.Builder
	depth := 0
	for _, r := range block {
		switch {
		case r == '{':
			depth++
		case r == '}':
			depth--
		case r == ' ' || r == '\n':
			if depth == 0 && word.Len() > 0 {
				words = append(words, word.String())
				word.Reset()
			}
			continue
		}
		word.WriteRune(r)
	}
	if word.Len() > 0 {
		words = append(words, word.String())
	}
	return words
}

// expandBraces expands each {a,b,…} list in word, left to right:
// "cmd/{x,y}/" is "cmd/x/" and "cmd/y/".
func expandBraces(word string) []string {
	open := strings.IndexByte(word, '{')
	if open < 0 {
		return []string{word}
	}
	end := strings.IndexByte(word[open:], '}')
	if end < 0 {
		return []string{word}
	}
	end += open
	var out []string
	for _, alt := range strings.Split(word[open+1:end], ",") {
		for _, rest := range expandBraces(word[end+1:]) {
			out = append(out, word[:open]+alt+rest)
		}
	}
	return out
}
