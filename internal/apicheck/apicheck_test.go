// Package apicheck holds two checks of the exported API surface.
//
// TestAPISurface pins the surface of seven packages — core (release
// orchestration), netx (FD passing), takeover (wire protocol and
// hand-off API), fleet, disrupt, metrics and katran — as a golden
// snapshot built from the AST alone. Any signature change, addition or
// removal fails until the golden is regenerated with:
//
//	go test ./internal/apicheck/ -run TestAPISurface -update
//
// which makes API drift a reviewed, diffable event instead of an
// accident.
//
// TestCallers (callers_test.go) checks who uses that surface: every
// exported name of every package under internal/ must have a caller in
// another package outside _test.go files.
package apicheck

import (
	"bytes"
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/printer"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/api_surface.txt from the current source")

// surfacePackages lists the pinned packages: import path -> directory
// relative to this package.
var surfacePackages = []struct{ importPath, dir string }{
	{"zdr/internal/core", "../core"},
	{"zdr/internal/netx", "../netx"},
	{"zdr/internal/takeover", "../takeover"},
	{"zdr/internal/fleet", "../fleet"},
	{"zdr/internal/disrupt", "../disrupt"},
	{"zdr/internal/metrics", "../metrics"},
	{"zdr/internal/katran", "../katran"},
}

func TestAPISurface(t *testing.T) {
	var buf bytes.Buffer
	buf.WriteString("# Exported API surface. Regenerate: go test ./internal/apicheck/ -update\n")
	for _, p := range surfacePackages {
		fmt.Fprintf(&buf, "\npackage %s\n\n", p.importPath)
		for _, decl := range packageSurface(t, p.dir) {
			buf.WriteString(decl)
			buf.WriteString("\n")
		}
	}
	got := buf.String()

	golden := filepath.Join("testdata", "api_surface.txt")
	if *update {
		if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d bytes)", golden, len(got))
		return
	}
	wantBytes, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("missing golden snapshot (run with -update to create it): %v", err)
	}
	want := string(wantBytes)
	if got == want {
		return
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if g != w {
			t.Fatalf("exported API surface drifted from the golden snapshot at line %d:\n  golden:  %q\n  current: %q\n\nIf the change is intentional, regenerate with:\n  go test ./internal/apicheck/ -run TestAPISurface -update",
				i+1, w, g)
		}
	}
	t.Fatal("exported API surface drifted from the golden snapshot (whitespace-only difference)")
}

// packageSurface parses every non-test file in dir and renders each
// exported declaration as canonical source, sorted for determinism.
func packageSurface(t *testing.T, dir string) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", dir, err)
	}
	var out []string
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				out = append(out, renderDecl(t, fset, decl)...)
			}
		}
	}
	sort.Strings(out)
	return out
}

// renderDecl returns the exported portion of a top-level declaration,
// one rendered string per item; nothing if the declaration exports
// nothing.
func renderDecl(t *testing.T, fset *token.FileSet, decl ast.Decl) []string {
	t.Helper()
	switch d := decl.(type) {
	case *ast.FuncDecl:
		if !d.Name.IsExported() || !exportedRecv(d.Recv) {
			return nil
		}
		d.Doc = nil
		d.Body = nil
		return []string{render(t, fset, d)}
	case *ast.GenDecl:
		d.Doc = nil
		var out []string
		for _, spec := range d.Specs {
			switch s := spec.(type) {
			case *ast.ValueSpec: // const or var
				if !anyExported(s.Names) {
					continue
				}
				s.Doc, s.Comment = nil, nil
				one := &ast.GenDecl{Tok: d.Tok, Specs: []ast.Spec{s}}
				out = append(out, render(t, fset, one))
			case *ast.TypeSpec:
				if !s.Name.IsExported() {
					continue
				}
				s.Doc, s.Comment = nil, nil
				elideUnexported(s.Type)
				one := &ast.GenDecl{Tok: d.Tok, Specs: []ast.Spec{s}}
				out = append(out, render(t, fset, one))
			}
		}
		return out
	}
	return nil
}

// exportedRecv reports whether a method's receiver names an exported
// type (funcs have a nil receiver and always qualify).
func exportedRecv(recv *ast.FieldList) bool {
	if recv == nil || len(recv.List) == 0 {
		return true
	}
	typ := recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

func anyExported(names []*ast.Ident) bool {
	for _, n := range names {
		if n.IsExported() {
			return true
		}
	}
	return false
}

// elideUnexported strips unexported struct fields and interface methods
// from a type expression, leaving a marker comment-free placeholder so
// private refactors don't churn the golden while exported shape changes
// still do.
func elideUnexported(expr ast.Expr) {
	switch tt := expr.(type) {
	case *ast.StructType:
		if tt.Fields == nil {
			return
		}
		kept := tt.Fields.List[:0]
		for _, f := range tt.Fields.List {
			f.Doc, f.Comment = nil, nil
			if len(f.Names) == 0 { // embedded field: keep if exported
				if embeddedExported(f.Type) {
					kept = append(kept, f)
				}
				continue
			}
			names := f.Names[:0]
			for _, n := range f.Names {
				if n.IsExported() {
					names = append(names, n)
				}
			}
			if len(names) > 0 {
				f.Names = names
				kept = append(kept, f)
			}
		}
		tt.Fields.List = kept
	case *ast.InterfaceType:
		if tt.Methods == nil {
			return
		}
		kept := tt.Methods.List[:0]
		for _, m := range tt.Methods.List {
			m.Doc, m.Comment = nil, nil
			if len(m.Names) == 0 || m.Names[0].IsExported() {
				kept = append(kept, m)
			}
		}
		tt.Methods.List = kept
	}
}

func embeddedExported(expr ast.Expr) bool {
	switch tt := expr.(type) {
	case *ast.StarExpr:
		return embeddedExported(tt.X)
	case *ast.SelectorExpr:
		return tt.Sel.IsExported()
	case *ast.Ident:
		return tt.IsExported()
	}
	return false
}

func render(t *testing.T, fset *token.FileSet, node any) string {
	t.Helper()
	var buf bytes.Buffer
	cfg := printer.Config{Mode: printer.UseSpaces, Tabwidth: 8}
	if err := cfg.Fprint(&buf, fset, node); err != nil {
		t.Fatalf("print: %v", err)
	}
	return buf.String()
}
