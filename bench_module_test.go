package hdd_test

import (
	"io/fs"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestBenchModuleBuilds compiles and smoke-tests bench/, the repository's
// benchmark. It is a module of its own (BENCHMARK.json runs it with
// `go run -C bench .`), so `go build ./... && go test ./...` here would
// not notice a change that breaks its imports of this module.
func TestBenchModuleBuilds(t *testing.T) {
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go tool not on PATH")
	}
	// `go test` reuses a cached pass while the test binary and the files
	// the test opened are unchanged, and deleting a symbol only bench/ uses
	// changes neither. Listing every source directory makes each file's
	// size and modification time part of what the cache checks.
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err == nil && d.IsDir() && (strings.HasPrefix(d.Name(), ".") && path != "." || path == filepath.Join("bench", "out")) {
			return fs.SkipDir
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	out, err := exec.Command("go", "test", "-C", "bench", "-short", "./...").CombinedOutput()
	if err != nil {
		t.Fatalf("go test -C bench -short ./...: %v\n%s", err, out)
	}
}
