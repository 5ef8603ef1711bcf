package tensor

import "fmt"

// Region describes a hyper-rectangular sub-volume of a tensor: per-dimension
// start offsets and extents. Regions are what the lowered IR moves between
// main memory and SPM; the DMA-inference pass flattens them into
// (offset, block, stride) descriptors using the tensor's strides.
type Region struct {
	Start  []int
	Extent []int
}

// NewRegion builds a region and validates it against the tensor.
func NewRegion(t *Tensor, start, extent []int) (Region, error) {
	if len(start) != t.Rank() || len(extent) != t.Rank() {
		return Region{}, fmt.Errorf("region rank mismatch for %s: start %d extent %d rank %d",
			t.Name, len(start), len(extent), t.Rank())
	}
	for d := range start {
		if start[d] < 0 || extent[d] <= 0 || start[d]+extent[d] > t.Dims[d] {
			return Region{}, fmt.Errorf("region [%d:%d+%d) out of bounds for %s dim %d (extent %d)",
				start[d], start[d], extent[d], t.Name, d, t.Dims[d])
		}
	}
	return Region{Start: append([]int(nil), start...), Extent: append([]int(nil), extent...)}, nil
}

// Len returns the number of elements in the region.
func (r Region) Len() int {
	n := 1
	for _, e := range r.Extent {
		n *= e
	}
	return n
}

// Blocks describes a strided flat access pattern: count blocks of block
// contiguous elements, consecutive block starts separated by stride
// elements, the first block starting at offset.
type Blocks struct {
	Offset int // elements from the start of the backing slice
	Block  int // contiguous elements per block
	Stride int // elements between consecutive block starts
	Count  int // number of blocks
}

// Total returns the number of elements transferred.
func (b Blocks) Total() int { return b.Block * b.Count }

// Flatten converts a region into a strided block pattern against the
// tensor's layout. It returns an error when the region cannot be expressed
// as a single (block, stride, count) pattern — in that case callers fall
// back to FlattenMulti.
func (r Region) Flatten(t *Tensor) (Blocks, error) {
	all, err := r.FlattenMulti(t)
	if err != nil {
		return Blocks{}, err
	}
	if len(all) != 1 {
		return Blocks{}, fmt.Errorf("region of %s needs %d strided descriptors, not 1", t.Name, len(all))
	}
	return all[0], nil
}

// FlattenMulti converts a region into one or more strided block patterns.
// Dimensions are visited from fastest-varying to slowest. A maximal run of
// dimensions that are (a) fully covered and (b) memory-adjacent fuses into
// the contiguous block; the next partially-covered dimension becomes the
// stride loop; remaining outer dimensions multiply into separate
// descriptors (one per outer index combination is avoided by emitting a
// descriptor per distinct outer "slab").
func (r Region) FlattenMulti(t *Tensor) ([]Blocks, error) {
	first, outer, err := r.flattenHead(t)
	if err != nil {
		return nil, err
	}
	// Any remaining dimensions with extent > 1 produce separate descriptors.
	out := []Blocks{first}
	for _, d := range outer {
		if r.Extent[d] == 1 {
			continue
		}
		next := make([]Blocks, 0, len(out)*r.Extent[d])
		for _, b := range out {
			for i := 0; i < r.Extent[d]; i++ {
				nb := b
				nb.Offset += i * t.Strides[d]
				next = append(next, nb)
			}
		}
		out = next
	}
	return out, nil
}

// FlattenSummary returns FlattenMulti's first descriptor and the total block
// count over all its descriptors (they share one geometry, so this is all a
// DMA request's timing needs) without materializing one descriptor per
// outer index.
func (r Region) FlattenSummary(t *Tensor) (first Blocks, count int, err error) {
	first, outer, err := r.flattenHead(t)
	if err != nil {
		return Blocks{}, 0, err
	}
	count = first.Count
	for _, d := range outer {
		count *= r.Extent[d]
	}
	return first, count, nil
}

// flattenHead computes FlattenMulti's first descriptor and the outer
// dimensions, slowest last, that replicate it.
func (r Region) flattenHead(t *Tensor) (Blocks, []int, error) {
	if len(r.Start) != t.Rank() {
		return Blocks{}, nil, fmt.Errorf("region rank %d vs tensor rank %d", len(r.Start), t.Rank())
	}
	// Order dimensions by increasing stride (fastest first).
	order := make([]int, t.Rank())
	for i := range order {
		order[i] = i
	}
	for i := 1; i < len(order); i++ {
		for j := i; j > 0 && t.Strides[order[j]] < t.Strides[order[j-1]]; j-- {
			order[j], order[j-1] = order[j-1], order[j]
		}
	}

	base := 0
	for d := range r.Start {
		base += r.Start[d] * t.Strides[d]
	}

	// Grow the contiguous block through fully-covered adjacent dims.
	block := 1
	k := 0
	for ; k < len(order); k++ {
		d := order[k]
		if t.Strides[d] != block {
			break
		}
		if r.Extent[d] == t.Dims[d] {
			block *= t.Dims[d]
			continue
		}
		// Partially covered: the covered part extends the block, then stop.
		block *= r.Extent[d]
		k++
		break
	}

	// The next dimension (if any) is the strided loop.
	if k >= len(order) {
		return Blocks{Offset: base, Block: block, Stride: block, Count: 1}, nil, nil
	}
	sd := order[k]
	return Blocks{Offset: base, Block: block, Stride: t.Strides[sd], Count: r.Extent[sd]}, order[k+1:], nil
}

// CopyRegionOut gathers a region of src into dst (a flat buffer) in the
// region's logical order (row-major over the region's own dims). dst must
// have r.Len() capacity. Returns the number of elements copied.
func CopyRegionOut(src *Tensor, r Region, dst []float32) (int, error) {
	n := r.Len()
	if len(dst) < n {
		return 0, fmt.Errorf("dst too small: %d < %d", len(dst), n)
	}
	idx := make([]int, src.Rank())
	pos := 0
	var rec func(d int, off int)
	rec = func(d int, off int) {
		if d == src.Rank() {
			dst[pos] = src.Data[off]
			pos++
			return
		}
		o := off + r.Start[d]*src.Strides[d]
		for i := 0; i < r.Extent[d]; i++ {
			rec(d+1, o)
			o += src.Strides[d]
		}
	}
	_ = idx
	rec(0, 0)
	return n, nil
}

// CopyRegionIn scatters src (a flat buffer in the region's logical row-major
// order) into a region of dst.
func CopyRegionIn(dst *Tensor, r Region, src []float32) (int, error) {
	n := r.Len()
	if len(src) < n {
		return 0, fmt.Errorf("src too small: %d < %d", len(src), n)
	}
	pos := 0
	var rec func(d int, off int)
	rec = func(d int, off int) {
		if d == dst.Rank() {
			dst.Data[off] = src[pos]
			pos++
			return
		}
		o := off + r.Start[d]*dst.Strides[d]
		for i := 0; i < r.Extent[d]; i++ {
			rec(d+1, o)
			o += dst.Strides[d]
		}
	}
	rec(0, 0)
	return n, nil
}

// AccumulateRegionIn adds src into a region of dst element-wise (used for
// output tiles accumulated across reduction loops that were split across
// DMA round trips).
func AccumulateRegionIn(dst *Tensor, r Region, src []float32) (int, error) {
	n := r.Len()
	if len(src) < n {
		return 0, fmt.Errorf("src too small: %d < %d", len(src), n)
	}
	pos := 0
	var rec func(d int, off int)
	rec = func(d int, off int) {
		if d == dst.Rank() {
			dst.Data[off] += src[pos]
			pos++
			return
		}
		o := off + r.Start[d]*dst.Strides[d]
		for i := 0; i < r.Extent[d]; i++ {
			rec(d+1, o)
			o += dst.Strides[d]
		}
	}
	rec(0, 0)
	return n, nil
}
