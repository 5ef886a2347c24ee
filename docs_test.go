package hdd_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documents cite DESIGN.md by section number, the committed evidence
// by path, and tests by name. TestDocCitations fails when a citation names
// a DESIGN.md heading that does not exist, a results/ path that is not in
// the tree, or (in DESIGN.md) a test function no test file defines. A path
// written as a git object, "git show <commit>:results/…", names a file
// that history holds and is not checked. CHANGES.md is a log of what each
// change did and is not checked: its old entries may name sections and
// files that are gone.

var (
	// "## 10. Durability" or "### 10.3 Group commit".
	designHeading = regexp.MustCompile(`(?m)^#{2,4} (\d+(?:\.\d+)?)\.? `)
	// "DESIGN.md §8, §10 and §13", possibly across a comment line break.
	designCite = regexp.MustCompile(`DESIGN(?:\.md)?\s+§\d+(?:\.\d+)?(?:(?:,|,? and|,? or)\s+(?:(?://|#)\s*)?§\d+(?:\.\d+)?)*`)
	sectionNum = regexp.MustCompile(`§(\d+(?:\.\d+)?)`)
	// "results/issue24/README.md", "results/issue24/trace_*",
	// "results/issue24/trace_update_durable_{parent,change}.txt".
	resultsPath = regexp.MustCompile(`results/issue\d+/[A-Za-z0-9_.\-/*{},]*`)
	testCite    = regexp.MustCompile("`((?:Test|Benchmark|Fuzz|Example)[A-Za-z0-9_]*)`")
	testFunc    = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)[A-Za-z0-9_]*)\(`)
)

// citingFiles lists the files whose citations are checked: every Go file,
// the long documents, each evidence README and the verify skill notes.
func citingFiles(t *testing.T) []string {
	t.Helper()
	files := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", "ROADMAP.md", "Makefile", ".claude/skills/verify/SKILL.md"}
	readmes, err := filepath.Glob("results/*/README.md")
	if err != nil {
		t.Fatal(err)
	}
	files = append(files, readmes...)
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && strings.HasPrefix(d.Name(), ".") && path != "." {
			return filepath.SkipDir
		}
		if !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return files
}

// expandBraces turns "a/{x,y}.json" into "a/x.json" and "a/y.json".
func expandBraces(p string) []string {
	i := strings.IndexByte(p, '{')
	j := strings.IndexByte(p, '}')
	if i < 0 || j < i {
		return []string{p}
	}
	var out []string
	for _, alt := range strings.Split(p[i+1:j], ",") {
		out = append(out, expandBraces(p[:i]+alt+p[j+1:])...)
	}
	return out
}

func TestDocCitations(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := map[string]bool{}
	for _, m := range designHeading.FindAllSubmatch(design, -1) {
		sections[string(m[1])] = true
	}
	if len(sections) == 0 {
		t.Fatal("DESIGN.md has no numbered headings")
	}
	defined := map[string]bool{}
	files := citingFiles(t)
	for _, f := range files {
		if !strings.HasSuffix(f, "_test.go") {
			continue
		}
		b, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range testFunc.FindAllSubmatch(b, -1) {
			defined[string(m[1])] = true
		}
	}
	for _, m := range testCite.FindAllSubmatch(design, -1) {
		if !defined[string(m[1])] {
			t.Errorf("DESIGN.md cites %s, which no test file defines", m[1])
		}
	}
	for _, f := range files {
		b, err := os.ReadFile(f)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		text := string(b)
		if f != "DESIGN.md" {
			for _, c := range designCite.FindAllString(text, -1) {
				for _, s := range sectionNum.FindAllStringSubmatch(c, -1) {
					if !sections[s[1]] {
						t.Errorf("%s cites DESIGN.md §%s, which has no such heading (%q)", f, s[1], c)
					}
				}
			}
		}
		for _, loc := range resultsPath.FindAllStringIndex(text, -1) {
			if loc[0] > 0 && text[loc[0]-1] == ':' {
				continue
			}
			p := strings.TrimRight(text[loc[0]:loc[1]], ".,")
			for _, alt := range expandBraces(p) {
				if m, _ := filepath.Glob(alt); len(m) == 0 {
					t.Errorf("%s cites %s, which is not in the tree", f, alt)
				}
			}
		}
	}
}
