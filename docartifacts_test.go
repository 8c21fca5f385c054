package repro

import (
	"bytes"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// artifactRef matches the committed artifacts a document can cite: a
// benchmark record, the archived report and an archived CSV.
var artifactRef = regexp.MustCompile(`BENCH_\w+\.json|report_output\.txt|results/[\w.-]+`)

// TestDocsCiteCommittedArtifacts fails when a document names an artifact
// the repository does not contain, so deleting a record or a CSV forces
// the docs that quote it to change in the same commit. CHANGES.md and
// ROADMAP.md are history logs and may name artifacts since deleted.
// Templates such as `BENCH_*.json` or `results/figure3_<bench>.csv` are
// not citations.
func TestDocsCiteCommittedArtifacts(t *testing.T) {
	docs := []string{"README.md", "DESIGN.md", "EXPERIMENTS.md"}
	more, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, more...)
	err = filepath.WalkDir(".claude/skills", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".md") {
			docs = append(docs, path)
		}
		return nil
	})
	if err != nil && !os.IsNotExist(err) {
		t.Fatal(err)
	}

	committed := committedFiles(t)
	cited := 0
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, loc := range artifactRef.FindAllIndex(data, -1) {
			if end := loc[1]; end < len(data) && strings.ContainsRune("<*{", rune(data[end])) {
				continue
			}
			ref := strings.TrimRight(string(data[loc[0]:loc[1]]), ".")
			cited++
			if !committed(ref) {
				line := 1 + bytes.Count(data[:loc[0]], []byte("\n"))
				t.Errorf("%s:%d cites %s, which is not a committed file", doc, line, ref)
			}
		}
	}
	if cited < 5 {
		t.Fatalf("found only %d artifact citations; the scanner is broken", cited)
	}
}

// committedFiles reports whether a repository-relative path is tracked
// by git. Outside a git checkout, such as an exported tree, it falls
// back to whether the file exists.
func committedFiles(t *testing.T) func(string) bool {
	out, err := exec.Command("git", "ls-files", "-z").Output()
	if err != nil {
		t.Logf("git ls-files: %v; checking that cited files exist instead", err)
		return func(path string) bool {
			_, err := os.Stat(path)
			return err == nil
		}
	}
	tracked := make(map[string]bool)
	for _, path := range strings.Split(string(out), "\x00") {
		tracked[path] = true
	}
	return func(path string) bool { return tracked[path] }
}
