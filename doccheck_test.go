package rhohammer

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"rhohammer/internal/serve"
)

// docDirs returns every Go package directory the doc check covers: the
// root package, every internal package, and every command.
func docDirs(t *testing.T) []string {
	t.Helper()
	dirs := []string{"."}
	for _, parent := range []string{"internal", "cmd"} {
		entries, err := os.ReadDir(parent)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if e.IsDir() {
				dirs = append(dirs, filepath.Join(parent, e.Name()))
			}
		}
	}
	return dirs
}

// TestPackageDocComments requires every package in the repository to
// carry a package doc comment on at least one non-test file. The doc
// comments are the entry points ARCHITECTURE.md links into; a package
// without one is invisible to godoc and to the next reader.
func TestPackageDocComments(t *testing.T) {
	fset := token.NewFileSet()
	for _, dir := range docDirs(t) {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		documented := false
		checked := 0
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			checked++
			f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.PackageClauseOnly)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if f.Doc != nil && strings.TrimSpace(f.Doc.Text()) != "" {
				documented = true
				break
			}
		}
		if checked == 0 {
			continue // no non-test Go files (not a package)
		}
		if !documented {
			t.Errorf("package %s has no package doc comment on any file", dir)
		}
	}
}

// TestAPIDocCoversRoutes requires API.md to document every route the
// campaign server registers. serve.Routes() and
// serve.CoordinatorRoutes() are the single sources of truth New
// registers handlers from, so a route added there without a matching
// "## METHOD /path" section fails here — the wire contract and its
// documentation cannot drift apart.
func TestAPIDocCoversRoutes(t *testing.T) {
	data, err := os.ReadFile("API.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	routes := append(serve.Routes(), serve.CoordinatorRoutes()...)
	for _, route := range routes {
		if !strings.Contains(doc, "## "+route) {
			t.Errorf("API.md has no \"## %s\" section", route)
		}
	}
}

// TestAPIDocRequestTables requires the field tables under API.md's
// "## POST /v1/jobs" and "## POST /v1/replay" sections to name exactly
// the JSON fields of internal/serve's jobRequest and replayRequest.
// The fields are read from the Go source, so no production code
// exists for this check; a request field added, retired or renamed on
// one side only fails here.
func TestAPIDocRequestTables(t *testing.T) {
	data, err := os.ReadFile("API.md")
	if err != nil {
		t.Fatal(err)
	}
	declared := jsonFieldsByType(t, filepath.Join("internal", "serve"))
	for _, c := range []struct{ section, typ string }{
		{"## POST /v1/jobs", "jobRequest"},
		{"## POST /v1/replay", "replayRequest"},
	} {
		documented := docFieldTables(string(data), c.section)
		code := declared[c.typ]
		if len(code) == 0 || len(documented) == 0 {
			t.Fatalf("%s: %d documented fields, %s has %d", c.section, len(documented), c.typ, len(code))
		}
		for _, f := range code {
			if !slices.Contains(documented, f) {
				t.Errorf("API.md %q table lacks %s field %q", c.section, c.typ, f)
			}
		}
		for _, f := range documented {
			if !slices.Contains(code, f) {
				t.Errorf("API.md %q table documents %q, which %s does not have", c.section, f, c.typ)
			}
		}
	}
}

// jsonFieldsByType parses the non-test Go files in dir and returns each
// struct type's JSON field names, in declaration order.
func jsonFieldsByType(t *testing.T, dir string) map[string][]string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil {
		t.Fatal(err)
	}
	fields := map[string][]string{}
	fset := token.NewFileSet()
	for _, path := range files {
		if strings.HasSuffix(path, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		ast.Inspect(f, func(n ast.Node) bool {
			ts, ok := n.(*ast.TypeSpec)
			if !ok {
				return true
			}
			st, ok := ts.Type.(*ast.StructType)
			if !ok {
				return false
			}
			for _, fd := range st.Fields.List {
				if fd.Tag == nil {
					continue
				}
				tag, err := strconv.Unquote(fd.Tag.Value)
				if err != nil {
					t.Fatal(err)
				}
				name, _, _ := strings.Cut(reflect.StructTag(tag).Get("json"), ",")
				if name != "" && name != "-" {
					fields[ts.Name.Name] = append(fields[ts.Name.Name], name)
				}
			}
			return false
		})
	}
	return fields
}

// docFieldTables returns the backquoted first-column names of every
// "| Field | Type | Meaning |" table in the markdown section that opens
// with the heading line section and runs to the next "## " heading.
func docFieldTables(doc, section string) []string {
	_, body, ok := strings.Cut(doc, "\n"+section+"\n")
	if !ok {
		return nil
	}
	body, _, _ = strings.Cut(body, "\n## ")
	var names []string
	inTable := false
	for _, line := range strings.Split(body, "\n") {
		switch {
		case strings.HasPrefix(line, "| Field | Type | Meaning |"):
			inTable = true
		case !strings.HasPrefix(line, "|"):
			inTable = false
		case inTable && strings.HasPrefix(line, "| `"):
			name, _, _ := strings.Cut(strings.TrimPrefix(line, "| `"), "`")
			names = append(names, name)
		}
	}
	return names
}

// TestOperationsDocCoversMetrics requires OPERATIONS.md (the runbook)
// to explain every metric series the serve layer exposes at /metrics.
// serve.Metrics() is the authoritative name list, so a counter or gauge
// added to the server without a runbook entry fails here — an operator
// paging through an incident never meets an undocumented number.
func TestOperationsDocCoversMetrics(t *testing.T) {
	data, err := os.ReadFile("OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(data)
	for _, name := range serve.Metrics() {
		if !strings.Contains(doc, name) {
			t.Errorf("OPERATIONS.md does not mention the %s metric", name)
		}
	}
}

// mdLink matches markdown inline links, capturing the target.
var mdLink = regexp.MustCompile(`\]\(([^)]+)\)`)

// TestDocLinks checks that every relative link in the root markdown
// documents points at a file that exists, so the doc set cannot rot as
// files move.
func TestDocLinks(t *testing.T) {
	docs, err := filepath.Glob("*.md")
	if err != nil {
		t.Fatal(err)
	}
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.HasPrefix(target, "http://") || strings.HasPrefix(target, "https://") ||
				strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			if _, err := os.Stat(filepath.FromSlash(target)); err != nil {
				t.Errorf("%s: broken relative link %q", doc, m[1])
			}
		}
	}
}

// fuzzTarget matches a native fuzz target's declaration.
var fuzzTarget = regexp.MustCompile(`(?m)^func (Fuzz\w*)\(\w+ \*testing\.F\)`)

// TestMakeFuzzRunsEveryFuzzTarget requires `make fuzz`, which CI's
// fuzz job runs, to run every native fuzz target in the module: each
// `func FuzzX(f *testing.F)` needs a recipe line with `-fuzz '^FuzzX$$'`
// and its package, so a new or renamed target cannot drop out of CI.
// perfbench is a separate module and is not searched.
func TestMakeFuzzRunsEveryFuzzTarget(t *testing.T) {
	data, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	var recipe []string
	if _, body, ok := strings.Cut(string(data), "\nfuzz:\n"); ok {
		for _, line := range strings.Split(body, "\n") {
			if !strings.HasPrefix(line, "\t") {
				break
			}
			recipe = append(recipe, line)
		}
	}
	if len(recipe) == 0 {
		t.Fatal("Makefile has no fuzz target recipe")
	}

	found := 0
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && (path == "perfbench" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		pkg := "./" + filepath.ToSlash(filepath.Dir(path))
		for _, m := range fuzzTarget.FindAllStringSubmatch(string(src), -1) {
			found++
			flag := "-fuzz '^" + m[1] + "$$'"
			if !slices.ContainsFunc(recipe, func(line string) bool {
				return strings.Contains(line, flag) && strings.HasSuffix(line, " "+pkg)
			}) {
				t.Errorf("%s: make fuzz does not run %s in %s", path, m[1], pkg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("found no fuzz targets; the search is broken")
	}
}
