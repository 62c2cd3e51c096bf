package lint

import (
	"go/types"
	"strings"
)

// ruleRegistry (R13) is the machine-checked integration contract for
// device families: a family declared in internal/accel must statically
// appear in every surface the rest of the system wires devices through.
// PR 9's device-engine layer made "add a device" a multi-file checklist
// (DESIGN.md); this rule replaces the reviewer's copy of that checklist
// so the next family (the SNAX-style programmable streamer on the
// roadmap) cannot land half-wired. The surfaces:
//
//   - a SnapshotState/RestoreState pair, so a warm checkpoint can
//     capture and restore the device (always checkable: the methods
//     live on the family type itself);
//   - an exported internal/workload constructor that reaches the family
//     and stamps a canonical DeviceKey — the identity the scenario
//     store caches under;
//   - the serve wire format (internal/serve reaches the family through
//     WorkloadSpec.Build), so scenariod clients can request it;
//   - a cmd/tcasim registration, so the CLI can run it;
//   - for engine families only (Invoke trees that build isa.AccelPhase
//     schedules): an internal/experiments sweep that pairs the family
//     with staticmodel's EngineOccupancy term, keeping the analytical
//     fast path honest about the new schedule shape.
//
// Reachability is the tier-3 transitive "references the family type or
// a constructor returning it" fact, so helper indirection (kvstore's
// newKVDevice) counts. Surfaces whose host package is outside the
// analysis universe are skipped silently: `simlint ./internal/accel`
// checks what it can see, and only the full `simlint ./...` run (CI,
// make lint) enforces the whole contract.
var ruleRegistry = &Rule{
	ID:   "R13",
	Name: "device-registry-consistency",
	Doc:  "a device family must appear in every integration surface: snapshot pair, workload DeviceKey, serve wire kind, tcasim registration, and (engines) a staticmodel EngineOccupancy sweep",
	Applies: func(rel string) bool {
		return rel == "internal/accel"
	},
	Check: checkRegistry,
}

func checkRegistry(pass *Pass) {
	ix := pass.Idx
	for _, named := range ix.familiesIn(pass.Pkg) {
		var missing []string

		if !hasMethod(named, "SnapshotState") || !hasMethod(named, "RestoreState") {
			missing = append(missing, "a SnapshotState/RestoreState pair for checkpointing")
		}

		if wp := ix.byRel["internal/workload"]; wp != nil {
			var anchors []*funcInfo
			for _, fi := range ix.funcsIn(wp) {
				if fi.fn.Exported() && fi.sum.families[named] {
					anchors = append(anchors, fi)
				}
			}
			if len(anchors) == 0 {
				missing = append(missing, "an exported internal/workload constructor that reaches the family")
			} else {
				keyed := false
				for _, fi := range anchors {
					if fi.sum.refsDeviceKey {
						keyed = true
						break
					}
				}
				if !keyed {
					missing = append(missing, "a canonical DeviceKey stamped by its workload constructor")
				}
			}
		}

		if servePkgs := ix.pkgsUnder("internal/serve"); len(servePkgs) > 0 && !anyFuncReaches(ix, servePkgs, named) {
			missing = append(missing, "a serve wire kind (internal/serve must reach the family)")
		}

		if tp := ix.byRel["cmd/tcasim"]; tp != nil && !anyFuncReaches(ix, []*Package{tp}, named) {
			missing = append(missing, "a cmd/tcasim registration")
		}

		// Engine families build phased schedules; their occupancy shape
		// must be represented in an experiments sweep that consults the
		// analytical model.
		if fi := ix.funcOf(deviceInvoke(named)); fi != nil && fi.sum.refsAccelPhase {
			if ep := ix.byRel["internal/experiments"]; ep != nil {
				ok := false
				for _, efi := range ix.funcsIn(ep) {
					if efi.sum.families[named] && efi.sum.callsEngineOccupancy {
						ok = true
						break
					}
				}
				if !ok {
					missing = append(missing, "an internal/experiments sweep pairing the engine family with staticmodel EngineOccupancy")
				}
			}
		}

		if len(missing) > 0 {
			pass.Reportf(named.Obj().Pos(),
				"device family %s is not wired into every integration surface: missing %s (see LINT.md R13)",
				named.Obj().Name(), strings.Join(missing, "; "))
		}
	}
}

// pkgsUnder returns the universe packages at or beneath the given
// module-relative prefix, in deterministic (path-sorted) order.
func (ix *Index) pkgsUnder(prefix string) []*Package {
	var out []*Package
	for _, pkg := range ix.pkgs {
		if underAny(pkg.Rel, prefix) {
			out = append(out, pkg)
		}
	}
	return out
}

// anyFuncReaches reports whether any function declared in the given
// packages transitively references the family.
func anyFuncReaches(ix *Index, pkgs []*Package, named *types.Named) bool {
	for _, pkg := range pkgs {
		for _, fi := range ix.funcsIn(pkg) {
			if fi.sum.families[named] {
				return true
			}
		}
	}
	return false
}

// hasMethod reports whether the named type (or its pointer) declares or
// promotes a method with the given name.
func hasMethod(named *types.Named, name string) bool {
	obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(named), true, named.Obj().Pkg(), name)
	_, ok := obj.(*types.Func)
	return ok
}
