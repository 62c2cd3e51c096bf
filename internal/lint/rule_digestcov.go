package lint

import (
	"go/ast"
	"go/types"
	"strings"
)

// digestRoots are the struct types whose transitive exported field set
// must be covered by the canonical digest encoder. A field reachable
// from one of these that never reaches the encoder makes two different
// runs digest-equal — the cache then serves one run's Stats for the
// other, which is the silent-aliasing failure DESIGN.md's scenario
// section rules out. Each root is audited in the package that owns its
// encoder (auditUnder): the scenario digest encoder covers the spec
// types.
var digestRoots = []struct{ pkgSuffix, name, auditUnder string }{
	{"internal/sim", "Config", "internal/scenario"},
	{"internal/scenario", "Spec", "internal/scenario"},
	{"internal/scenario", "MeasureSpec", "internal/scenario"},
}

// ruleDigestCov (R8) proves digest exhaustiveness: every exported field
// of the spec types — and of every module-internal struct reachable
// through their fields — must be (a) read by an encoder method or a
// Digest method, (b) erased to a zero value in a Canonical method
// (the documented "cannot influence results" list), or (c) named in a
// //lint:exempt-field R8 manifest directive with a reason.
var ruleDigestCov = &Rule{
	ID:   "R8",
	Name: "digest-field-coverage",
	Doc:  "every field reachable from sim.Config / scenario.Spec / scenario.MeasureSpec must reach the digest encoder, be erased by Canonical, or carry a //lint:exempt-field R8 manifest entry",
	Applies: func(rel string) bool {
		return underAny(rel, "internal/scenario")
	},
	Check: checkDigestCoverage,
}

func checkDigestCoverage(pass *Pass) {
	// Consumers: the encoder's methods plus the Digest methods. Describe
	// and friends deliberately do not count — display code reading a
	// field proves nothing about its identity contribution.
	var consumers []*ast.FuncDecl
	pass.eachFile(func(f *ast.File) {
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv == nil {
				continue
			}
			if recvTypeName(fd) == "encoder" || fd.Name.Name == "Digest" {
				consumers = append(consumers, fd)
			}
		}
	})
	if len(consumers) == 0 {
		return // no encoder here (e.g. a sub-package); nothing to prove
	}
	anchor := consumers[0]
	for _, fd := range consumers {
		if fd.Pos() < anchor.Pos() {
			anchor = fd
		}
	}
	var roots []*types.Named
	for _, r := range digestRoots {
		if !underAny(pass.Pkg.Rel, r.auditUnder) {
			continue
		}
		if n := lookupNamed(pass, r.pkgSuffix, r.name); n != nil {
			roots = append(roots, n)
		}
	}
	if len(roots) == 0 {
		return
	}
	cov := newCoverage(pass)
	cov.addRoots(roots, nil)
	cov.collectExemptions("R8", append([]*Package{pass.Pkg}, cov.definingPackages()...))
	cov.collectErasures()
	for _, fd := range consumers {
		cov.recordReads(fd.Body)
	}
	for _, ct := range cov.orderedTypes() {
		missing := cov.missingFields(ct, nil)
		if len(missing) == 0 {
			continue
		}
		pass.Reportf(anchor.Pos(),
			"digest encoder never reads %s field(s) %s: two configs differing only there digest identically and alias in the result cache; encode them (and bump SchemeVersion), erase them in Canonical, or add `//lint:exempt-field R8 %s.<Field> <reason>`",
			ct.display(), strings.Join(missing, ", "), ct.named.Obj().Name())
	}
}

// recvTypeName returns the receiver's type name (pointer stripped), or "".
func recvTypeName(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return ""
	}
	t := fd.Recv.List[0].Type
	if s, ok := t.(*ast.StarExpr); ok {
		t = s.X
	}
	if id, ok := t.(*ast.Ident); ok {
		return id.Name
	}
	return ""
}

// lookupNamed resolves a named type by name: first in the pass package's
// own scope (fixtures pose local stand-ins for the real types), then in
// any import whose path matches the module-relative package suffix.
func lookupNamed(pass *Pass, pkgSuffix, name string) *types.Named {
	if tn, ok := pass.Pkg.Types.Scope().Lookup(name).(*types.TypeName); ok {
		if n, ok := tn.Type().(*types.Named); ok {
			return n
		}
	}
	for _, imp := range pass.Pkg.Types.Imports() {
		p := imp.Path()
		if p != pkgSuffix && !strings.HasSuffix(p, "/"+pkgSuffix) {
			continue
		}
		if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
			if n, ok := tn.Type().(*types.Named); ok {
				return n
			}
		}
	}
	return nil
}
