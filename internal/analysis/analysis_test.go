package analysis

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// repoRoot locates the module root from this source file's position.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	root := filepath.Dir(filepath.Dir(filepath.Dir(file))) // internal/analysis/ → repo
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("repo root %s has no go.mod: %v", root, err)
	}
	return root
}

// One shared loader: the stdlib source importer is the expensive part,
// and its results are reusable across every fixture and the selfcheck.
var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		_, file, _, ok := runtime.Caller(0)
		if !ok {
			loaderErr = fmt.Errorf("runtime.Caller failed")
			return
		}
		root := filepath.Dir(filepath.Dir(filepath.Dir(file)))
		loaderVal, loaderErr = NewLoader(root)
	})
	if loaderErr != nil {
		t.Fatalf("loader: %v", loaderErr)
	}
	return loaderVal
}

// loadFixture loads one fixture package under testdata/src.
func loadFixture(t *testing.T, rel string) *Package {
	t.Helper()
	l := sharedLoader(t)
	dir := filepath.Join(repoRoot(t), "internal", "analysis", "testdata", "src", filepath.FromSlash(rel))
	pkg, err := l.Load(dir)
	if err != nil {
		t.Fatalf("load fixture %s: %v", rel, err)
	}
	for _, e := range pkg.TypeErrors {
		t.Errorf("fixture %s has type errors: %v", rel, e)
	}
	return pkg
}

// wantMarkers scans fixture sources for "// WANT <analyzer>" markers and
// returns the expected file:line→analyzer set.
func wantMarkers(t *testing.T, pkg *Package) map[string]string {
	t.Helper()
	want := map[string]string{}
	entries, err := os.ReadDir(pkg.Dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(pkg.Dir, e.Name())
		f, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for ln := 1; sc.Scan(); ln++ {
			line := sc.Text()
			idx := strings.Index(line, "// WANT ")
			if idx < 0 {
				continue
			}
			name := strings.TrimSpace(line[idx+len("// WANT "):])
			want[fmt.Sprintf("%s:%d", path, ln)] = name
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return want
}

// checkFixture runs one analyzer over a fixture package and compares
// findings against the WANT markers.
func checkFixture(t *testing.T, a *Analyzer, rel string) {
	t.Helper()
	pkg := loadFixture(t, rel)
	want := wantMarkers(t, pkg)
	got := map[string]string{}
	for _, f := range RunPackage(pkg, []*Analyzer{a}) {
		key := fmt.Sprintf("%s:%d", f.Pos.Filename, f.Pos.Line)
		got[key] = f.Analyzer
	}
	for key, name := range want {
		if got[key] != name {
			t.Errorf("expected %s finding at %s, got %q", name, key, got[key])
		}
	}
	for key, name := range got {
		if _, ok := want[key]; !ok {
			t.Errorf("unexpected %s finding at %s", name, key)
		}
	}
}

func TestFloatCmpFixture(t *testing.T) { checkFixture(t, FloatCmp, "floatcmp") }
func TestLockHoldFixture(t *testing.T) { checkFixture(t, LockHold, "lockhold") }
func TestErrDropFixture(t *testing.T)  { checkFixture(t, ErrDrop, "errdrop") }

// TestReadmeAnalyzerTableIsAll holds README.md's analyzer table to
// All(): the same names, in the same order, so the documented rule set
// cannot drift from the registered one.
func TestReadmeAnalyzerTableIsAll(t *testing.T) {
	data, err := os.ReadFile(filepath.Join(repoRoot(t), "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	var documented []string
	inTable := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "| analyzer ") {
			inTable = true
			continue
		}
		if inTable && !strings.HasPrefix(line, "|") {
			break
		}
		if inTable && !strings.HasPrefix(line, "|--") {
			cell := strings.TrimSpace(strings.SplitN(line, "|", 3)[1])
			documented = append(documented, strings.Trim(cell, "`"))
		}
	}
	var registered []string
	for _, a := range All() {
		registered = append(registered, a.Name)
	}
	if strings.Join(documented, " ") != strings.Join(registered, " ") {
		t.Fatalf("README analyzer table lists %v, All() is %v", documented, registered)
	}
}

// TestIgnoreDirectives checks suppression (same line and line above),
// non-matching analyzer names, and malformed-directive reporting.
func TestIgnoreDirectives(t *testing.T) {
	pkg := loadFixture(t, "ignore")
	findings := RunPackage(pkg, []*Analyzer{FloatCmp})
	type key struct {
		analyzer string
		fn       string
	}
	got := map[key]int{}
	for _, f := range findings {
		fn := enclosingFixtureFunc(t, pkg, f)
		got[key{f.Analyzer, fn}]++
	}
	want := map[key]int{
		{"floatcmp", "wrongAnalyzer"}: 1, // directive names a different analyzer
		{"floatcmp", "unsuppressed"}:  1,
		{"floatcmp", "missingReason"}: 1, // malformed directive does not suppress
		{"lint", "missingReason"}:     1,
		{"floatcmp", "unknownName"}:   1,
		{"lint", "unknownName"}:       1,
	}
	for k, n := range want {
		if got[k] != n {
			t.Errorf("wanted %d %s finding(s) in %s, got %d", n, k.analyzer, k.fn, got[k])
		}
	}
	for k, n := range got {
		if want[k] == 0 {
			t.Errorf("unexpected %d %s finding(s) in %s (suppression failed?)", n, k.analyzer, k.fn)
		}
	}
}

// enclosingFixtureFunc maps a finding line back to the fixture function
// containing it, by scanning the source for func declarations.
func enclosingFixtureFunc(t *testing.T, pkg *Package, f Finding) string {
	t.Helper()
	data, err := os.ReadFile(f.Pos.Filename)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(data), "\n")
	name := "<none>"
	for i := 0; i < f.Pos.Line && i < len(lines); i++ {
		if rest, ok := strings.CutPrefix(lines[i], "func "); ok {
			name = rest[:strings.IndexAny(rest, "(")]
		}
	}
	return name
}

// TestByName covers the CLI's analyzer selection.
func TestByName(t *testing.T) {
	all, err := ByName("")
	if err != nil || len(all) != 7 {
		t.Fatalf("ByName(\"\") = %d analyzers, err %v; want 7", len(all), err)
	}
	// The dataflow-layer analyzers must be registered (the selfcheck
	// runs All(), so this also keeps them wired into tier-1).
	names := map[string]bool{}
	for _, a := range all {
		names[a.Name] = true
	}
	for _, want := range []string{"walldet", "tracekind", "lockhold", "hotalloc"} {
		if !names[want] {
			t.Errorf("ByName(\"\") is missing analyzer %s", want)
		}
	}
	sel, err := ByName("floatcmp, errdrop")
	if err != nil || len(sel) != 2 || sel[0].Name != "floatcmp" || sel[1].Name != "errdrop" {
		t.Fatalf("ByName subset = %v, err %v", sel, err)
	}
	if _, err := ByName("nope"); err == nil {
		t.Fatal("ByName(nope) should fail")
	}
}
