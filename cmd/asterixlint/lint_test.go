package main

import (
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"sync"
	"testing"
)

// The fixture harness loads a package from testdata/src/<name>, runs every
// rule over it, and compares the findings against `// WANT <rule>` markers
// in the fixture source. Fixtures cover each rule's positive cases, the
// patterns it must NOT flag, and a lint:ignore suppression.

var (
	loaderOnce sync.Once
	loader     *Loader
	loaderErr  error
)

func fixtureLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loader, loaderErr = NewLoader(".")
	})
	if loaderErr != nil {
		t.Fatalf("NewLoader: %v", loaderErr)
	}
	return loader
}

var wantRe = regexp.MustCompile(`//\s*WANT\s+([a-z-]+(?:[ ,]+[a-z-]+)*)`)

// wantMarkers parses the expectations out of every fixture file in dir,
// keyed "file.go:line" -> rule names.
func wantMarkers(t *testing.T, dir string) map[string][]string {
	t.Helper()
	want := map[string][]string{}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("read fixture dir: %v", err)
	}
	for _, e := range ents {
		if !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("read fixture: %v", err)
		}
		for i, line := range strings.Split(string(data), "\n") {
			m := wantRe.FindStringSubmatch(line)
			if m == nil {
				continue
			}
			key := fmt.Sprintf("%s:%d", e.Name(), i+1)
			want[key] = append(want[key], strings.FieldsFunc(m[1], func(r rune) bool {
				return r == ' ' || r == ','
			})...)
		}
	}
	return want
}

// checkFixture runs all rules over the fixture package and diffs findings
// against the WANT markers. mutate retargets Config at fixture types.
func checkFixture(t *testing.T, name string, mutate func(cfg *Config, pkgPath string)) {
	t.Helper()
	dir := filepath.Join("testdata", "src", name)
	l := fixtureLoader(t)
	pkg, err := l.LoadDir(dir)
	if err != nil {
		t.Fatalf("load fixture %s: %v", name, err)
	}
	cfg := DefaultConfig()
	if mutate != nil {
		mutate(cfg, pkg.Path)
	}
	diags := RunRules(cfg, pkg, AllRules())

	want := map[string]bool{}
	for key, rules := range wantMarkers(t, dir) {
		for _, r := range rules {
			want[key+":"+r] = true
		}
	}
	got := map[string]bool{}
	for _, d := range diags {
		got[fmt.Sprintf("%s:%d:%s", filepath.Base(d.Pos.Filename), d.Pos.Line, d.Rule)] = true
	}

	var missing, unexpected []string
	for k := range want {
		if !got[k] {
			missing = append(missing, k)
		}
	}
	for k := range got {
		if !want[k] {
			unexpected = append(unexpected, k)
		}
	}
	sort.Strings(missing)
	sort.Strings(unexpected)
	for _, k := range missing {
		t.Errorf("missing expected finding %s", k)
	}
	for _, k := range unexpected {
		t.Errorf("unexpected finding %s", k)
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("got: %s", d)
		}
	}
}

func TestErrDiscardFixture(t *testing.T) {
	checkFixture(t, "errdiscard", nil)
}

func TestGoLifecycleFixture(t *testing.T) {
	checkFixture(t, "goroutine", nil)
}

func TestLockHeldFixture(t *testing.T) {
	checkFixture(t, "lockheld", nil)
}

func TestDeferUnlockFixture(t *testing.T) {
	checkFixture(t, "deferunlock", nil)
}

func TestLockOrderFixture(t *testing.T) {
	checkFixture(t, "lockorder", nil)
}

func TestResourceLeakFixture(t *testing.T) {
	checkFixture(t, "resleak", func(cfg *Config, pkgPath string) {
		cfg.ErrPkgs = nil // fixture drops Close errors on purpose
		cfg.Resources = []ResourceSpec{
			{
				Pkg: pkgPath, Recv: "Pool", Func: "Acquire", Result: 0,
				Desc: "pool resource",
				Releases: []ReleaseSpec{
					{Pkg: pkgPath, Recv: "Res", Func: "Release", Arg: -1},
				},
			},
			{
				Pkg: "os", Func: "Open", Result: 0,
				Desc: "open file",
				Releases: []ReleaseSpec{
					{Pkg: "os", Recv: "File", Func: "Close", Arg: -1},
				},
			},
		}
	})
}

func TestHotAllocFixture(t *testing.T) {
	checkFixture(t, "hotalloc", func(cfg *Config, pkgPath string) {
		cfg.HotRoots = []FuncRef{{Pkg: pkgPath, Func: "HotKernel"}}
	})
}

func TestWaitAttribFixture(t *testing.T) {
	checkFixture(t, "waitattrib", func(cfg *Config, pkgPath string) {
		cfg.WaitRoots = []FuncRef{{Pkg: pkgPath, Func: "RunTask"}}
		cfg.WaitFuncs = []FuncRef{{Pkg: pkgPath, Recv: "TC", Func: "AddWait"}}
	})
}

func TestWaitNetFixture(t *testing.T) {
	checkFixture(t, "waitnet", func(cfg *Config, pkgPath string) {
		cfg.WaitRoots = []FuncRef{{Pkg: pkgPath, Func: "SendFrames"}}
		cfg.WaitFuncs = []FuncRef{{Pkg: pkgPath, Recv: "TC", Func: "AddWait"}}
	})
}

func TestResourceLeakInterprocFixture(t *testing.T) {
	checkFixture(t, "resleakip", func(cfg *Config, pkgPath string) {
		cfg.Resources = []ResourceSpec{
			{
				Pkg: pkgPath, Recv: "Pool", Func: "Acquire", Result: 0,
				Type: "Res", Desc: "pool resource",
				Releases: []ReleaseSpec{
					{Pkg: pkgPath, Recv: "Res", Func: "Release", Arg: -1},
				},
			},
		}
	})
}

func TestCtxFlowFixture(t *testing.T) {
	checkFixture(t, "ctxflow", nil)
}

func TestStaleSuppressionFixture(t *testing.T) {
	checkFixture(t, "stalesup", nil)
}

func TestMultiRuleSuppression(t *testing.T) {
	checkFixture(t, "multirule", func(cfg *Config, pkgPath string) {
		cfg.Resources = []ResourceSpec{
			{
				Pkg: pkgPath, Recv: "Pool", Func: "AcquireCtx", Result: 0,
				Desc: "pool resource",
				Releases: []ReleaseSpec{
					{Pkg: pkgPath, Recv: "Res", Func: "Release", Arg: -1},
				},
			},
		}
	})
}

// A lint:ignore without a reason is itself a finding, and does not
// suppress the rule it names.
func TestDirectiveMissingReason(t *testing.T) {
	l := fixtureLoader(t)
	pkg, err := l.LoadDir(filepath.Join("testdata", "src", "directive"))
	if err != nil {
		t.Fatalf("load fixture: %v", err)
	}
	diags := RunRules(DefaultConfig(), pkg, AllRules())
	rules := map[string]bool{}
	for _, d := range diags {
		rules[d.Rule] = true
	}
	if !rules["lint-directive"] {
		t.Errorf("want a lint-directive finding for the missing reason, got %v", diags)
	}
	if !rules["err-discard"] {
		t.Errorf("a reason-less directive must not suppress; want err-discard, got %v", diags)
	}
}
