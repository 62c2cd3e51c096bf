package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeModule lays out a throwaway module for loader error-path tests.
// Keys are slash-separated module-relative paths.
func writeModule(t *testing.T, files map[string]string) string {
	t.Helper()
	dir := t.TempDir()
	for name, src := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir
}

// TestLoadMalformedSource pins the syntax-error path: Load must fail and
// the error must name the offending file, because that message is what
// simlint prints before exiting 2.
func TestLoadMalformedSource(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":              "module broken\n\ngo 1.22\n",
		"internal/sim/bad.go": "package sim\n\nfunc oops( {\n",
	})
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = loader.Load("broken/internal/sim")
	if err == nil {
		t.Fatal("malformed source must fail to load")
	}
	if !strings.Contains(err.Error(), "bad.go") {
		t.Errorf("error %q does not name the offending file", err)
	}
}

// TestLoadTypeError pins the type-check failure path: parseable but
// untypeable source reports a type-checking error naming the package.
func TestLoadTypeError(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":              "module broken\n\ngo 1.22\n",
		"internal/sim/bad.go": "package sim\n\nvar x NoSuchType\n",
	})
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	_, err = loader.Load("broken/internal/sim")
	if err == nil {
		t.Fatal("untypeable source must fail to load")
	}
	if !strings.Contains(err.Error(), "type-checking") ||
		!strings.Contains(err.Error(), "broken/internal/sim") {
		t.Errorf("error %q should name the type-checking phase and the package", err)
	}
}

// TestLoadMissingPackage pins the unknown-path error.
func TestLoadMissingPackage(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod": "module broken\n\ngo 1.22\n",
	})
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Load("broken/internal/nope"); err == nil {
		t.Fatal("missing package directory must fail to load")
	}
}

// TestLoadSkipsTestFiles pins the _test.go exclusion: a violation living
// only in a test file is invisible to the analyzer — test code may use
// wall clocks and global rand freely.
func TestLoadSkipsTestFiles(t *testing.T) {
	dir := writeModule(t, map[string]string{
		"go.mod":             "module broken\n\ngo 1.22\n",
		"internal/sim/ok.go": "package sim\n\n// Cycles is fine.\nfunc Cycles() int { return 1 }\n",
		"internal/sim/ok_test.go": "package sim\n\nimport \"time\"\n\n" +
			"func helper() int64 { return time.Now().UnixNano() }\n",
	})
	loader, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	pkg, err := loader.Load("broken/internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.Files) != 1 {
		t.Fatalf("loaded %d files, want 1 (ok_test.go must be excluded)", len(pkg.Files))
	}
	if diags := Run([]*Package{pkg}, AllRules()); len(diags) != 0 {
		t.Errorf("test-file violation leaked into analysis: %v", diags)
	}
}
