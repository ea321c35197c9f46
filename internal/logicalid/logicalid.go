// Package logicalid implements the paper's logical identifier scheme
// (§4.1): "a simple function is used to map each CH to a hypercube node,
// using system parameters such as central coordinate, length and width
// of the whole network, diameter of VCs, and dimension of logical
// hypercubes". It defines the four identifier kinds —
//
//	CHID — Cluster Head ID, one per virtual circle (1:1 with HNID),
//	HNID — Hypercube Node ID, the label within a logical hypercube,
//	HID  — Hypercube ID (many HNIDs to one HID),
//	MNID — Mesh Node ID (1:1 with HID),
//
// and the bidirectional mappings between them and grid geometry. The
// label layout reproduces the paper's Figure 3 exactly: within a block
// the label is the bit-interleaving of the VC's row and column indices
// (row bit, column bit, row bit, column bit, ... from the most
// significant end), which makes half the logical links coincide with
// grid adjacency and the other half the figure's "additional logical
// links" that jump two cells.
package logicalid

import (
	"fmt"

	"repro/internal/geom"
	"repro/internal/hypercube"
	"repro/internal/vcgrid"
)

// CHID identifies a cluster head slot; it equals the linear index of the
// VC the CH serves, so the CHID-HNID relation is one-to-one as required.
type CHID int

// HID identifies one logical hypercube; it equals the linear mesh index
// of the block, so the HID-MNID relation is one-to-one as required.
type HID int

// MNID identifies a mesh node. MNID == HID by construction.
type MNID = HID

// Scheme carries the system parameters of the mapping.
type Scheme struct {
	grid *vcgrid.Grid
	dim  int

	blockW, blockH int // VCs per hypercube block
	meshCols       int
	meshRows       int
	colBits        int // bits of the label taken from the column index
	rowBits        int // bits of the label taken from the row index
	useGray        bool
}

// Option configures a Scheme.
type Option func(*Scheme)

// WithGrayLabels switches the in-block mapping from plain binary
// interleaving (the paper's Figure 3 layout) to Gray-coded interleaving,
// under which *every* grid-adjacent VC pair inside a block is also a
// hypercube neighbor. It exists for the label-mapping ablation.
func WithGrayLabels() Option { return func(s *Scheme) { s.useGray = true } }

// New builds the identifier scheme for the given grid and hypercube
// dimension. The block shape is 2^ceil(dim/2) columns by
// 2^floor(dim/2) rows (square for even dim, 2:1 for odd). The grid need
// not divide evenly into blocks: edge blocks simply have absent labels,
// i.e. incomplete hypercubes, which the model embraces.
func New(grid *vcgrid.Grid, dim int, opts ...Option) (*Scheme, error) {
	if dim < 1 || dim > hypercube.MaxDim {
		return nil, fmt.Errorf("logicalid: dimension %d out of range [1,%d]", dim, hypercube.MaxDim)
	}
	s := &Scheme{grid: grid, dim: dim}
	s.colBits = (dim + 1) / 2
	s.rowBits = dim / 2
	s.blockW = 1 << uint(s.colBits)
	s.blockH = 1 << uint(s.rowBits)
	s.meshCols = (grid.Cols() + s.blockW - 1) / s.blockW
	s.meshRows = (grid.Rows() + s.blockH - 1) / s.blockH
	for _, o := range opts {
		o(s)
	}
	return s, nil
}

// Grid returns the underlying VC grid.
func (s *Scheme) Grid() *vcgrid.Grid { return s.grid }

// Dim returns the hypercube dimension.
func (s *Scheme) Dim() int { return s.dim }

// BlockSize returns the block shape in VCs (columns, rows).
func (s *Scheme) BlockSize() (w, h int) { return s.blockW, s.blockH }

// MeshSize returns the mesh-tier shape (columns, rows of hypercubes).
func (s *Scheme) MeshSize() (cols, rows int) { return s.meshCols, s.meshRows }

// NumHypercubes returns the number of mesh nodes.
func (s *Scheme) NumHypercubes() int { return s.meshCols * s.meshRows }

// gray returns the standard reflected binary Gray code of v.
func gray(v int) int { return v ^ (v >> 1) }

// grayInv inverts gray.
func grayInv(g int) int {
	v := 0
	for ; g != 0; g >>= 1 {
		v ^= g
	}
	return v
}

// interleave packs row and column index bits into a label, row bit
// first from the MSB end, alternating while both have bits left; the
// axis with more bits contributes the leading bits.
func (s *Scheme) interleave(bx, by int) hypercube.Label {
	if s.useGray {
		bx, by = gray(bx), gray(by)
	}
	label := 0
	ci, ri := s.colBits-1, s.rowBits-1
	for pos := s.dim - 1; pos >= 0; pos-- {
		// Row bit goes at the most significant remaining position when
		// rows have as many bits left as columns (matches Figure 3:
		// k1 = row MSB for dim 4); otherwise columns lead.
		if ri >= ci && ri >= 0 {
			label |= ((by >> uint(ri)) & 1) << uint(pos)
			ri--
		} else {
			label |= ((bx >> uint(ci)) & 1) << uint(pos)
			ci--
		}
	}
	return hypercube.Label(label)
}

// deinterleave inverts interleave.
func (s *Scheme) deinterleave(l hypercube.Label) (bx, by int) {
	ci, ri := s.colBits-1, s.rowBits-1
	for pos := s.dim - 1; pos >= 0; pos-- {
		bit := (int(l) >> uint(pos)) & 1
		if ri >= ci && ri >= 0 {
			by |= bit << uint(ri)
			ri--
		} else {
			bx |= bit << uint(ci)
			ci--
		}
	}
	if s.useGray {
		bx, by = grayInv(bx), grayInv(by)
	}
	return bx, by
}

// Place is the full logical location of one VC: which hypercube (HID ==
// MNID), which node within it (HNID), and the flat CHID.
type Place struct {
	CHID CHID
	HID  HID
	HNID hypercube.Label
}

// PlaceOf returns the logical location of a VC. Invalid VCs panic — the
// caller owns grid bounds.
func (s *Scheme) PlaceOf(v vcgrid.VC) Place {
	if !s.grid.Valid(v) {
		panic(fmt.Sprintf("logicalid: invalid VC %v", v))
	}
	mx, my := v.CX/s.blockW, v.CY/s.blockH
	bx, by := v.CX%s.blockW, v.CY%s.blockH
	return Place{
		CHID: CHID(s.grid.Index(v)),
		HID:  HID(my*s.meshCols + mx),
		HNID: s.interleave(bx, by),
	}
}

// PlaceAt returns the logical location of a geographic point.
func (s *Scheme) PlaceAt(p geom.Point) Place {
	return s.PlaceOf(s.grid.VCOf(p))
}

// VCAt inverts PlaceOf: the VC hosting the given hypercube node. The
// result may lie outside the grid when the edge block is partial; check
// with Grid().Valid.
func (s *Scheme) VCAt(h HID, l hypercube.Label) vcgrid.VC {
	mx, my := int(h)%s.meshCols, int(h)/s.meshCols
	bx, by := s.deinterleave(l)
	return vcgrid.VC{CX: mx*s.blockW + bx, CY: my*s.blockH + by}
}

// MeshCoord returns the mesh-tier coordinates of a hypercube.
func (s *Scheme) MeshCoord(h HID) (mx, my int) {
	return int(h) % s.meshCols, int(h) / s.meshCols
}

// HIDAt returns the hypercube at the given mesh coordinates, or -1 if
// outside the mesh.
func (s *Scheme) HIDAt(mx, my int) HID {
	if mx < 0 || mx >= s.meshCols || my < 0 || my >= s.meshRows {
		return -1
	}
	return HID(my*s.meshCols + mx)
}

// MeshNeighbors returns the 4-neighborhood of h at the mesh tier.
func (s *Scheme) MeshNeighbors(h HID) []HID {
	mx, my := s.MeshCoord(h)
	out := make([]HID, 0, 4)
	for _, c := range [4][2]int{{mx - 1, my}, {mx + 1, my}, {mx, my - 1}, {mx, my + 1}} {
		if n := s.HIDAt(c[0], c[1]); n >= 0 {
			out = append(out, n)
		}
	}
	return out
}

// IsBorder reports whether a VC borders another hypercube block — its
// CH would be a Border Cluster Head (BCH). All other CHs are Inner
// Cluster Heads (ICHs).
func (s *Scheme) IsBorder(v vcgrid.VC) bool {
	bx, by := v.CX%s.blockW, v.CY%s.blockH
	if bx == 0 && v.CX > 0 {
		return true
	}
	if bx == s.blockW-1 && v.CX < s.grid.Cols()-1 {
		return true
	}
	if by == 0 && v.CY > 0 {
		return true
	}
	if by == s.blockH-1 && v.CY < s.grid.Rows()-1 {
		return true
	}
	return false
}

// BlockVCs returns the valid VCs of the hypercube h, i.e. the present
// label slots of the (possibly incomplete at the grid edge) cube.
func (s *Scheme) BlockVCs(h HID) []vcgrid.VC {
	return s.AppendBlockVCs(nil, h)
}

// AppendBlockVCs appends BlockVCs(h) to out and returns the extended
// slice, for callers that reuse a scratch buffer.
func (s *Scheme) AppendBlockVCs(out []vcgrid.VC, h HID) []vcgrid.VC {
	mx, my := s.MeshCoord(h)
	for by := 0; by < s.blockH; by++ {
		for bx := 0; bx < s.blockW; bx++ {
			v := vcgrid.VC{CX: mx*s.blockW + bx, CY: my*s.blockH + by}
			if s.grid.Valid(v) {
				out = append(out, v)
			}
		}
	}
	return out
}

// CHIDToPlace resolves a CHID to its full logical location.
func (s *Scheme) CHIDToPlace(c CHID) Place {
	return s.PlaceOf(s.grid.FromIndex(int(c)))
}

// BorderPairs returns, for the hypercube pair (h, g) adjacent on the
// mesh, the VC pairs (one in h, one in g) whose tiles share an edge —
// the candidate BCH-BCH logical links between adjacent mesh nodes. It
// returns nil when h and g are not mesh-adjacent.
func (s *Scheme) BorderPairs(h, g HID) [][2]vcgrid.VC {
	hx, hy := s.MeshCoord(h)
	gx, gy := s.MeshCoord(g)
	dx, dy := gx-hx, gy-hy
	if dx*dx+dy*dy != 1 {
		return nil
	}
	var out [][2]vcgrid.VC
	for _, v := range s.BlockVCs(h) {
		w := vcgrid.VC{CX: v.CX + dx, CY: v.CY + dy}
		if s.grid.Valid(w) && s.PlaceOf(w).HID == g {
			out = append(out, [2]vcgrid.VC{v, w})
		}
	}
	return out
}
