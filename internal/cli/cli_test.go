package cli

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"repro/internal/misdp"
	"repro/internal/misdp/testsets"
	"repro/internal/steiner"
	"repro/internal/steiner/puc"
)

// newFlagSet is a binary's whole flag set: its instance flags (declared
// here as cmd/<binary>/main.go declares them) plus the shared set.
func newFlagSet(binary string) (*flag.FlagSet, *Flags) {
	fs := flag.NewFlagSet(binary, flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	switch binary {
	case "ugsteiner":
		fs.String("file", "", "")
		fs.String("instance", "", "")
	case "ugmisdp":
		fs.String("family", "ttd", "")
		fs.Int("n", 0, "")
		fs.Int("k", 0, "")
		fs.String("mode", "hybrid", "")
	}
	return fs, Register(fs, binary == "ugmisdp")
}

// TestDocumentedCommandLinesSelectTheirRole is the guard against a flag
// lost when the two mains were merged into this package: every
// ugsteiner/ugmisdp command line in README.md, DESIGN.md, the Makefile,
// scripts/, the CI workflow and the two package comments parses against
// the shared set and lands in the role its documentation describes.
func TestDocumentedCommandLinesSelectTheirRole(t *testing.T) {
	for _, tc := range []struct {
		line string
		role role
	}{
		// cmd/ugsteiner package comment
		{"ugsteiner -file instance.stp -workers 8", roleInProcess},
		{"ugsteiner -instance hc6u -workers 16 -racing", roleInProcess},
		{"ugsteiner -instance hc7p -workers 8 -time 30 -checkpoint run.ckpt", roleInProcess},
		{"ugsteiner -instance hc7p -workers 8 -restart run.ckpt", roleInProcess},
		{"ugsteiner -instance hc6u -net-procs 2", roleNetCoordinator},
		{"ugsteiner -instance hc6u -net-listen :7071 -workers 2", roleNetCoordinator},
		{"ugsteiner -instance hc6u -net-connect host:7071 -rank 1", roleNetWorker},
		// cmd/ugmisdp package comment
		{"ugmisdp -family ttd -workers 8", roleInProcess},
		{"ugmisdp -family mkp -n 7 -k 3 -mode sdp -workers 1", roleInProcess},
		{"ugmisdp -family cls -racing -workers 16", roleInProcess},
		// README.md
		{"ugsteiner -instance hc6p -workers 8 -racing", roleInProcess},
		{"ugsteiner -file my_instance.stp -workers 4 -time 60 -checkpoint run.ckpt", roleInProcess},
		{"ugsteiner -file my_instance.stp -workers 8 -restart run.ckpt", roleInProcess},
		{"ugmisdp -family mkp -n 7 -k 3 -workers 8", roleInProcess},
		{"ugsteiner -instance hc6u -net-procs 2 -trace dist.trace", roleNetCoordinator},
		{"ugsteiner -instance hc6u -net-connect localhost:7071 -rank 2", roleNetWorker},
		{"ugsteiner -instance cc3-4p -workers 4 -racing -trace run.trace -stats", roleInProcess},
		{"ugmisdp -family mkp -sequential -mode lp -trace seq.trace -stats", roleSequential},
		{"ugsteiner -instance hc6p -workers 8 -profile cpu.pprof", roleInProcess},
		{"ugsteiner -instance hc7u -workers 8 -pprof localhost:6060 -watchdog 30s", roleInProcess},
		{"ugsteiner -instance hc6u -net-procs 1 -forensics pm", roleNetCoordinator},
		// Makefile, .github/workflows/ci.yml, scripts/*.sh
		{"ugsteiner -instance cc3-4p -workers 2 -racing -trace /tmp/ug-smoke.trace -stats", roleInProcess},
		{"ugsteiner -instance cc3-4p -net-procs 2 -trace /tmp/ug-net-smoke.trace -stats", roleNetCoordinator},
		{"ugmisdp -family ttd -net-procs 2 -trace /tmp/ug-net-smoke-misdp.trace -stats", roleNetCoordinator},
		{"ugsteiner -instance cc3-4p -workers 2 -racing -test-panic-rank 1 -forensics /tmp/pm/panic", roleInProcess},
		{"ugsteiner -instance cc3-4p -net-procs 2 -watchdog 1s -test-delay-term 5s -forensics /tmp/pm/stall", roleNetCoordinator},
		{"ugsteiner -instance hc7u -workers 2 -time 10 -pprof 127.0.0.1:6061 -watchdog 30s", roleInProcess},
		// what workerArgv hands a self-spawned worker
		{"ugmisdp -family ttd -n 0 -k 0 -mode hybrid -seed 1 -test-delay-term 4s -trace t.rank1 -watchdog 1s -forensics pm -net-connect 127.0.0.1:4000 -rank 1", roleNetWorker},
	} {
		argv := strings.Fields(tc.line)
		fs, f := newFlagSet(argv[0])
		if err := fs.Parse(argv[1:]); err != nil {
			t.Errorf("%s: %v", tc.line, err)
		} else if got := f.role(); got != tc.role {
			t.Errorf("%s: role %d, want %d", tc.line, got, tc.role)
		}
	}
}

// commandLine matches a ugsteiner/ugmisdp invocation inside prose, a
// recipe or a script: the binary (possibly a path or a go-run package)
// followed by at least one flag.
var commandLine = regexp.MustCompile(`(?:^|[\s/])(ugsteiner|ugmisdp)(?:-[a-z]+)?\s+(-[a-z].*)$`)

// serveInstance matches the instance of a ugserve job spec in the docs.
var serveInstance = regexp.MustCompile(`"instance":\s*"([^"]*)"`)

// TestEveryCommandLineInTheDocsParses scans the same files for command
// lines the table above may not list yet, so a newly documented flag
// that does not exist (or one dropped from the shared set) fails here.
// Every instance name they give — a ugsteiner -instance or a ugserve
// "instance" — must be one puc.Named builds.
func TestEveryCommandLineInTheDocsParses(t *testing.T) {
	root := filepath.Join("..", "..")
	files := []string{"README.md", "DESIGN.md", "Makefile", ".github/workflows/ci.yml",
		"cmd/ugsteiner/main.go", "cmd/ugmisdp/main.go"}
	scripts, _ := filepath.Glob(filepath.Join(root, "scripts", "*.sh"))
	for _, s := range scripts {
		files = append(files, filepath.Join("scripts", filepath.Base(s)))
	}
	found, names := 0, 0
	resolves := func(file, name string) {
		names++
		if puc.Named(name) == nil {
			t.Errorf("%s: instance %q is not a puc.Named name", file, name)
		}
	}
	for _, name := range files {
		data, err := os.ReadFile(filepath.Join(root, name))
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range serveInstance.FindAllStringSubmatch(string(data), -1) {
			resolves(name, m[1])
		}
		// Join shell continuation lines, then look at each line.
		text := strings.ReplaceAll(string(data), "\\\n", " ")
		for _, line := range strings.Split(text, "\n") {
			m := commandLine.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			var argv []string
			for _, tok := range strings.Fields(m[2]) {
				// Stop at shell syntax: comments, redirections, pipes,
				// backgrounding, and prose punctuation after the command.
				if strings.ContainsAny(tok[:1], "#>|&;`(") {
					break
				}
				argv = append(argv, strings.Trim(tok, "`\"'"))
			}
			fs, _ := newFlagSet(m[1])
			if err := fs.Parse(argv); err != nil {
				t.Errorf("%s: %q: %v", name, strings.TrimSpace(line), err)
			} else if inst := fs.Lookup("instance"); inst != nil && inst.Value.String() != "" {
				resolves(name, inst.Value.String())
			}
			found++
		}
	}
	if found < 25 || names < 25 {
		t.Fatalf("found only %d command lines and %d instance names — the scanner has gone blind", found, names)
	}
}

// TestReadmeFlagTableIsTheSharedSet holds README.md's flag table to the
// registered set, both ways: no documented flag that does not exist, no
// shared flag left undocumented.
func TestReadmeFlagTableIsTheSharedSet(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "README.md"))
	if err != nil {
		t.Fatal(err)
	}
	documented := map[string]bool{}
	inTable := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "| flag |") {
			inTable = true
			continue
		}
		if inTable && !strings.HasPrefix(line, "|") {
			break
		}
		if inTable {
			firstCell := strings.SplitN(line, "|", 3)[1]
			for _, m := range flagInTable.FindAllStringSubmatch(firstCell, -1) {
				documented[m[1]] = true
			}
		}
	}
	registered := map[string]bool{}
	fs := flag.NewFlagSet("shared", flag.ContinueOnError)
	Register(fs, false)
	fs.VisitAll(func(fl *flag.Flag) { registered[fl.Name] = true })
	if len(registered) != 19 {
		t.Errorf("%d shared flags registered, want the 16 common ones plus -checkpoint, -restart, -sequential", len(registered))
	}
	var diff []string
	for name := range registered {
		if !documented[name] {
			diff = append(diff, "undocumented: -"+name)
		}
	}
	for name := range documented {
		if !registered[name] {
			diff = append(diff, "documented but not registered: -"+name)
		}
	}
	sort.Strings(diff)
	if len(diff) > 0 {
		t.Fatalf("README flag table and cli.Register disagree:\n%s", strings.Join(diff, "\n"))
	}
}

var (
	wallField   = regexp.MustCompile(`"wall":[0-9.e+-]+`)
	flagInTable = regexp.MustCompile("`-([a-z-]+)")
)

// TestTraceBytesIdenticalWithLivePlaneOnOrOff is the sink-chain
// invariant at harness level: the bus (-pprof, -watchdog) tees in front
// of the recorder and the recorder in front of the file, each forwarding
// downstream first, so a single-process trace is the same bytes — modulo
// the tracer-stamped wall clock — whether or not anything live listens.
func TestTraceBytesIdenticalWithLivePlaneOnOrOff(t *testing.T) {
	for _, tc := range []struct {
		binary string
		prog   func() Program
	}{
		{"ugmisdp", func() Program {
			return Program{Name: "ugmisdp", App: misdp.NewApp(testsets.TTD(3, 5, 2, 1), 16), MaxForm: true}
		}},
		{"ugsteiner", func() Program {
			return Program{Name: "ugsteiner", App: steiner.NewApp(puc.HypercubeT(4, 7, true, 3))}
		}},
	} {
		var (
			traces  [2][]byte
			reports [2]bytes.Buffer
		)
		for i, live := range []string{"", " -watchdog 1h -pprof 127.0.0.1:0"} {
			path := filepath.Join(t.TempDir(), "trace")
			fs, f := newFlagSet(tc.binary)
			if err := fs.Parse(strings.Fields("-sequential -trace " + path + live)); err != nil {
				t.Fatal(err)
			}
			if err := f.Run(tc.prog(), &reports[i], io.Discard); err != nil {
				t.Fatalf("%s%s: %v", tc.binary, live, err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			traces[i] = wallField.ReplaceAll(data, []byte(`"wall":0`))
		}
		plain, withLive := traces[0], traces[1]
		if n := bytes.Count(plain, []byte("\n")); n < 3 {
			t.Fatalf("%s: trace has %d events — too small to pin anything", tc.binary, n)
		}
		if !bytes.Equal(plain, withLive) {
			t.Errorf("%s: trace differs with the live plane on (%d vs %d bytes)", tc.binary, len(plain), len(withLive))
		}
		if !strings.Contains(reports[0].String(), "status   optimal") {
			t.Errorf("%s: report:\n%s", tc.binary, reports[0].String())
		}
	}
}
