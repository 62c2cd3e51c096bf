// Fixture for R9's Checkpoint clone audit. Posed as a package under
// internal/sim, it defines local stand-ins for Checkpoint and its nested
// RenameEntry; Clone aliases the Ports slice.
package fixtureckpt

type RenameEntry struct {
	Valid bool
	Seq   uint64
}

type Checkpoint struct {
	Now     int64
	Seq     uint64
	Rename  []RenameEntry // deep-copied by Clone: fine
	Ports   []int64       // aliased by Clone below
	scratch int64         // unexported: copied by the whole-struct copy
}

// Clone deep-copies Rename but aliases Ports.
func (ck *Checkpoint) Clone() *Checkpoint {
	out := *ck
	out.Rename = append([]RenameEntry(nil), ck.Rename...)
	out.Ports = ck.Ports // want:R9
	return &out
}
