package wideplace_test

import (
	"bufio"
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// TestEveryInternalFunctionIsReachable builds every command, every
// walkthrough and the bench binary with inlining off, so each function a
// binary can call keeps its own symbol, and fails on any function or method
// declared in non-test code under internal/ that no symbol table holds. Such
// code is reached only by tests: move it into a _test.go file beside them or
// delete it.
func TestEveryInternalFunctionIsReachable(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary; skipped under -short")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not on PATH")
	}
	const module = "wideplace"
	bin := t.TempDir()
	build := func(dir, out string, pkgs ...string) {
		args := append([]string{"build", "-gcflags=all=-l", "-o", out}, pkgs...)
		cmd := exec.Command(goTool, args...)
		cmd.Dir = dir
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s in %s: %v\n%s", strings.Join(args, " "), dir, err, msg)
		}
	}
	build(".", bin+string(filepath.Separator), "./cmd/...", "./examples/...")
	build("bench", filepath.Join(bin, "bench"), ".")

	reached := map[string]bool{}
	entries, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		out, err := exec.Command(goTool, "tool", "nm", filepath.Join(bin, e.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", e.Name(), err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// "addr kind name", where name may hold spaces (shape types).
			f := strings.Fields(sc.Text())
			if len(f) >= 3 {
				reached[stripTypeArgs(strings.Join(f[2:], " "))] = true
			}
		}
		if err := sc.Err(); err != nil {
			t.Fatal(err)
		}
	}

	var missing []string
	fset := token.NewFileSet()
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := module + "/" + filepath.ToSlash(filepath.Dir(path))
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			if sym := funcSymbol(pkg, fn); !reached[sym] {
				missing = append(missing, sym+" ("+fset.Position(fn.Pos()).String()+")")
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		t.Errorf("%d functions under internal/ are in no binary's symbol table:\n\t%s",
			len(missing), strings.Join(missing, "\n\t"))
	}
}

// funcSymbol names fn as the linker does: pkg.F, pkg.T.M or pkg.(*T).M,
// with any type parameters dropped.
func funcSymbol(pkg string, fn *ast.FuncDecl) string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return pkg + "." + fn.Name.Name
	}
	typ, ptr := fn.Recv.List[0].Type, false
	if star, ok := typ.(*ast.StarExpr); ok {
		typ, ptr = star.X, true
	}
	switch x := typ.(type) {
	case *ast.IndexExpr:
		typ = x.X
	case *ast.IndexListExpr:
		typ = x.X
	}
	name := typ.(*ast.Ident).Name
	if ptr {
		return pkg + ".(*" + name + ")." + fn.Name.Name
	}
	return pkg + "." + name + "." + fn.Name.Name
}

// stripTypeArgs drops every bracketed type-argument list from a symbol, so
// pkg.(*Set[go.shape.int]).Add reads pkg.(*Set).Add.
func stripTypeArgs(sym string) string {
	if !strings.Contains(sym, "[") {
		return sym
	}
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
