package main

import (
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

const testManifest = `
# comment lines and blank lines are skipped
repro/internal/a TestOracle/sonic
repro/internal/a TestOracle/tails
repro/internal/b TestWhole
`

// stream builds a test2json stream from "<action> <package> [test]" lines.
func stream(lines ...string) string {
	var b strings.Builder
	for _, l := range lines {
		f := strings.Fields(l)
		test := ""
		if len(f) == 3 {
			test = fmt.Sprintf(`,"Test":%q`, f[2])
		}
		fmt.Fprintf(&b, `{"Time":"2024-01-01T00:00:00Z","Action":%q,"Package":%q%s}`+"\n", f[0], f[1], test)
	}
	return b.String()
}

// allPass is a stream in which every manifest row passes.
var allPass = []string{
	"start repro/internal/a",
	"run repro/internal/a TestOracle",
	"run repro/internal/a TestOracle/sonic",
	"run repro/internal/a TestOracle/sonic-tape",
	"run repro/internal/a TestOracle/tails",
	"pass repro/internal/a TestOracle/sonic",
	"pass repro/internal/a TestOracle/sonic-tape",
	"pass repro/internal/a TestOracle/tails",
	"pass repro/internal/a TestOracle",
	"skip repro/internal/a TestUnpinned",
	"pass repro/internal/a",
	"start repro/internal/b",
	"run repro/internal/b TestWhole",
	"run repro/internal/b TestWhole/row",
	"pass repro/internal/b TestWhole/row",
	"pass repro/internal/b TestWhole",
	"pass repro/internal/b",
	"skip repro/cmd/notests",
}

// without returns lines minus every line in drop.
func without(lines []string, drop ...string) []string {
	var out []string
next:
	for _, l := range lines {
		for _, d := range drop {
			if l == d {
				continue next
			}
		}
		out = append(out, l)
	}
	return out
}

func runCheck(t *testing.T, in string) []string {
	t.Helper()
	rows, err := parseManifest(strings.NewReader(testManifest))
	if err != nil {
		t.Fatal(err)
	}
	return check(rows, strings.NewReader(in), io.Discard)
}

func TestAllPassStreamPasses(t *testing.T) {
	if p := runCheck(t, stream(allPass...)); len(p) != 0 {
		t.Fatalf("all-pass stream: problems %q", p)
	}
}

// TestCheckFails runs one stream per way a run can fall short and wants
// exactly the problems that name it.
func TestCheckFails(t *testing.T) {
	cases := []struct {
		name  string
		lines []string
		want  []string
	}{
		{"missing-id", without(allPass, "pass repro/internal/a TestOracle/tails"),
			[]string{"MISSING repro/internal/a TestOracle/tails: no pass event"}},
		{"skipped-id", append(without(allPass, "pass repro/internal/b TestWhole"), "skip repro/internal/b TestWhole"),
			[]string{"SKIP repro/internal/b TestWhole: manifest row TestWhole must run",
				"MISSING repro/internal/b TestWhole: no pass event"}},
		{"skipped-subtest", append(allPass, "skip repro/internal/b TestWhole/other"),
			[]string{"SKIP repro/internal/b TestWhole/other: manifest row TestWhole must run"}},
		{"unpinned-test-fails", append(allPass, "fail repro/internal/a TestUnpinnedFails"),
			[]string{"FAIL repro/internal/a TestUnpinnedFails"}},
		{"build-fail", append(allPass, "start repro/internal/c", "fail repro/internal/c"),
			[]string{"FAIL repro/internal/c"}},
		{"prefix-is-not-a-match", without(allPass, "pass repro/internal/a TestOracle/sonic"),
			[]string{"MISSING repro/internal/a TestOracle/sonic: no pass event"}},
		{"other-package", append(without(allPass, "pass repro/internal/b TestWhole"), "pass repro/internal/a TestWhole"),
			[]string{"MISSING repro/internal/b TestWhole: no pass event"}},
		{"empty-stream", nil, []string{"no test events on stdin"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if p := runCheck(t, stream(c.lines...)); fmt.Sprint(p) != fmt.Sprint(c.want) {
				t.Fatalf("problems %q, want %q", p, c.want)
			}
		})
	}
}

func TestNotJSONFails(t *testing.T) {
	p := runCheck(t, stream(allPass...)+"FAIL\trepro/internal/c [build failed]\n")
	if len(p) != 1 || !strings.HasPrefix(p[0], "stream is not go test -json output after 18 events") {
		t.Fatalf("problems %q, want one undecodable-stream problem", p)
	}
}

// TestFailingTestOutputShown: a failing test's output reaches out, a
// passing test's does not, and package and build lines always do.
func TestFailingTestOutputShown(t *testing.T) {
	rows, err := parseManifest(strings.NewReader("p TestA\n"))
	if err != nil {
		t.Fatal(err)
	}
	in := `{"ImportPath":"p [p.test]","Action":"build-output","Output":"# p\n"}
{"Action":"output","Package":"p","Test":"TestA","Output":"quiet\n"}
{"Action":"pass","Package":"p","Test":"TestA"}
{"Action":"output","Package":"p","Test":"TestB","Output":"loud\n"}
{"Action":"fail","Package":"p","Test":"TestB"}
{"Action":"output","Package":"p","Output":"FAIL\tp\t0.1s\n"}
{"Action":"fail","Package":"p"}
`
	var out strings.Builder
	p := check(rows, strings.NewReader(in), &out)
	if want := []string{"FAIL p TestB", "FAIL p"}; fmt.Sprint(p) != fmt.Sprint(want) {
		t.Errorf("problems %q, want %q", p, want)
	}
	if got, want := out.String(), "# p\nloud\nFAIL\tp\t0.1s\n"; got != want {
		t.Errorf("output %q, want %q", got, want)
	}
}

func TestManifestRejectsBadRows(t *testing.T) {
	for _, m := range []string{
		"",
		"# only a comment\n",
		"repro/internal/a\n",
		"repro/internal/a TestA extra\n",
		"repro/internal/a TestA\nrepro/internal/a TestA\n",
	} {
		if _, err := parseManifest(strings.NewReader(m)); err == nil {
			t.Errorf("manifest %q parsed without error", m)
		}
	}
}

// TestRepoManifestParses reads the checked-in manifest.
func TestRepoManifestParses(t *testing.T) {
	f, err := os.Open("../../" + manifestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := parseManifest(f); err != nil {
		t.Fatal(err)
	}
}
