// Command oraclecheck checks a `go test -json` stream against the oracle
// manifest, oracles.txt at the repository root. Run it from the root:
//
//	set -o pipefail; go test -race -json ./... | go run ./cmd/oraclecheck
//
// It exits 1 when any test or package fails anywhere in the stream, when a
// manifest row has no pass event, or when a manifest row or any subtest
// under it is skipped. Rows match test IDs exactly, so a row .../sonic is
// not satisfied by a pass of .../sonic-tape. Package result lines and the
// output of every failing test are copied to standard output.
//
// Keep pipefail on the pipe: a `go test` that fails before it can write a
// JSON event (a bad package pattern, a toolchain that reports build errors
// as text) shows only in its exit status.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
)

// manifestFile is the manifest's path relative to the repository root.
const manifestFile = "oracles.txt"

func main() {
	f, err := os.Open(manifestFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "oraclecheck: %v (run from the repository root)\n", err)
		os.Exit(1)
	}
	rows, err := parseManifest(f)
	f.Close()
	if err != nil {
		fmt.Fprintf(os.Stderr, "oraclecheck: %s: %v\n", manifestFile, err)
		os.Exit(1)
	}
	if problems := check(rows, os.Stdin, os.Stdout); len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "oraclecheck:", p)
		}
		os.Exit(1)
	}
	fmt.Printf("oraclecheck: all %d manifest rows passed, none skipped, no failures\n", len(rows))
}

// row is one manifest entry: a package import path and a test ID, the
// test's name with its subtest path, as `go test -json` reports them.
type row struct{ pkg, test string }

// parseManifest reads one "<package> <TestID[/subtest...]>" row per line;
// blank lines and lines starting with # are skipped.
func parseManifest(r io.Reader) ([]row, error) {
	var rows []row
	seen := map[row]bool{}
	sc := bufio.NewScanner(r)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		f := strings.Fields(line)
		if len(f) != 2 {
			return nil, fmt.Errorf("line %d: want \"<package> <TestID>\", got %q", n, line)
		}
		rw := row{f[0], f[1]}
		if seen[rw] {
			return nil, fmt.Errorf("line %d: duplicate row %s %s", n, rw.pkg, rw.test)
		}
		seen[rw] = true
		rows = append(rows, rw)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(rows) == 0 {
		return nil, errors.New("no rows")
	}
	return rows, nil
}

// event is the part of a test2json event the checker reads.
type event struct {
	Action  string
	Package string
	Test    string
	Output  string
}

// check reads a `go test -json` stream to its end and returns one line per
// problem found: every fail event, every manifest row without a pass event
// and every skip of a row or of a subtest under it, or a stream that cannot
// be decoded. It copies package-level output, build output included, and
// each failing test's output to out.
func check(rows []row, stream io.Reader, out io.Writer) []string {
	required := make(map[row]bool, len(rows))
	for _, rw := range rows {
		required[rw] = true
	}
	passed := map[row]bool{}
	pending := map[row]*strings.Builder{} // output of tests still running
	var problems []string
	events := 0
	dec := json.NewDecoder(stream)
	for {
		var e event
		if err := dec.Decode(&e); err == io.EOF {
			break
		} else if err != nil {
			io.Copy(io.Discard, stream) // let the writer finish instead of dying on a closed pipe
			return append(problems, fmt.Sprintf("stream is not go test -json output after %d events: %v", events, err))
		}
		events++
		id := row{e.Package, e.Test}
		if e.Test == "" {
			if e.Action == "output" || e.Action == "build-output" {
				io.WriteString(out, e.Output)
			}
			if e.Action == "fail" {
				problems = append(problems, "FAIL "+e.Package)
			}
			continue
		}
		switch e.Action {
		case "output":
			b := pending[id]
			if b == nil {
				b = new(strings.Builder)
				pending[id] = b
			}
			b.WriteString(e.Output)
		case "pass":
			passed[id] = true
			delete(pending, id)
		case "skip":
			if under := requiredAncestor(required, id); under != "" {
				problems = append(problems, fmt.Sprintf("SKIP %s %s: manifest row %s must run", e.Package, e.Test, under))
			}
			delete(pending, id)
		case "fail":
			if b := pending[id]; b != nil {
				io.WriteString(out, b.String())
			}
			delete(pending, id)
			problems = append(problems, fmt.Sprintf("FAIL %s %s", e.Package, e.Test))
		}
	}
	if events == 0 {
		return []string{"no test events on stdin"}
	}
	for _, rw := range rows {
		if !passed[rw] {
			problems = append(problems, fmt.Sprintf("MISSING %s %s: no pass event", rw.pkg, rw.test))
		}
	}
	return problems
}

// requiredAncestor returns the manifest row that id is or is a subtest of,
// or "" if there is none.
func requiredAncestor(required map[row]bool, id row) string {
	for t := id.test; ; {
		if required[row{id.pkg, t}] {
			return t
		}
		i := strings.LastIndexByte(t, '/')
		if i < 0 {
			return ""
		}
		t = t[:i]
	}
}
