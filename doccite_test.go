package preexec_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdCite matches a Markdown file name cited anywhere in Go source.
var mdCite = regexp.MustCompile(`[A-Za-z0-9_./-]+\.md\b`)

// TestGoSourcesCiteExistingDocs fails when a Go file in the repository names
// a Markdown document that does not exist, resolved against the citing
// file's directory and the repository root. A comment that points readers
// at a missing document leaves them with half an explanation.
func TestGoSourcesCiteExistingDocs(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			for _, doc := range mdCite.FindAllString(line, -1) {
				if !fileExists(filepath.Join(filepath.Dir(path), doc)) && !fileExists(doc) {
					t.Errorf("%s:%d cites %s, which is not in the repository", path, i+1, doc)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
