package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// CtxFlow enforces cancellation plumbing in the engine's long-running
// layers and its public API: internal/core, internal/server and the root
// silkmoth package must never mint their own root context with
// context.Background() or context.TODO() (a query that synthesizes a root
// context is a query the server cannot cancel or deadline), and every
// exported Search*/Discover* entrypoint in those packages must accept a
// context.Context so callers have somewhere to thread one.
var CtxFlow = &Analyzer{
	Name: "ctxflow",
	Doc:  "silkmoth and internal/{core,server} must thread contexts, never mint Background/TODO",
	Applies: func(pkg *Package) bool {
		return pkg.Path == "silkmoth" ||
			hasSuffixPath(pkg.Path, "internal/core") ||
			hasSuffixPath(pkg.Path, "internal/server")
	},
	Run: runCtxFlow,
}

func runCtxFlow(pass *Pass) {
	info := pass.Pkg.Info
	inspectFiles(pass.Pkg, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		obj := calleeObject(info, call)
		if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "context" {
			return true
		}
		if obj.Name() == "Background" || obj.Name() == "TODO" {
			pass.Reportf(call.Pos(), "context.%s() mints an uncancellable root context; thread the caller's context instead", obj.Name())
		}
		return true
	})

	for _, f := range pass.Pkg.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			name := fd.Name.Name
			if !strings.HasPrefix(name, "Search") && !strings.HasPrefix(name, "Discover") {
				continue
			}
			if fd.Recv != nil && !receiverExported(fd) {
				continue
			}
			if !hasContextParam(info, fd) {
				pass.Reportf(fd.Name.Pos(), "exported query entrypoint %s must take a context.Context", name)
			}
		}
	}
}

func receiverExported(fd *ast.FuncDecl) bool {
	if len(fd.Recv.List) == 0 {
		return false
	}
	t := fd.Recv.List[0].Type
	for {
		switch tt := t.(type) {
		case *ast.StarExpr:
			t = tt.X
		case *ast.IndexExpr:
			t = tt.X
		case *ast.Ident:
			return tt.IsExported()
		default:
			return false
		}
	}
}

func hasContextParam(info *types.Info, fd *ast.FuncDecl) bool {
	if fd.Type.Params == nil {
		return false
	}
	for _, field := range fd.Type.Params.List {
		t := info.TypeOf(field.Type)
		if t == nil {
			continue
		}
		named, ok := t.(*types.Named)
		if !ok {
			continue
		}
		obj := named.Obj()
		if obj.Name() == "Context" && obj.Pkg() != nil && obj.Pkg().Path() == "context" {
			return true
		}
	}
	return false
}
