package cowbtree

import (
	"encoding/binary"
	"fmt"
	"math/bits"
)

// Page image, the form in which both pagers store a page:
//
//	+0   flags (u8): imgLeaf, imgFOR, imgLens
//	+1   kw (u8, ≤ 8): the width of a key delta
//	+2   count (u16)
//	+4   vw (u16): the width of a value column entry
//	+6   shift (u8, < 64 under imgFOR)
//	+7   0
//	+8   key base (u64)
//	+16  value base (u64), under imgFOR only
//	     count × (key - key base), kw bytes each, in page order
//	     count × value column entry, vw bytes each
//	     under imgLens, the values back to back
//
// A value column entry is one of three things. Under imgFOR — an inner page,
// whose values are child ids, or a leaf whose values are all 8 bytes wide, as
// NVM-CoW's tuple pointers are — it is (value - value base) >> shift, with vw
// ≤ 8: page ids and chunk addresses are close together, and chunk addresses
// 16-byte aligned. Under imgLens, a leaf that mixes value widths, it is a
// value's length (vw ≤ 8), and the values follow the column. Otherwise it is
// the value itself, vw bytes, all of the leaf's values being that wide (the
// empty values of secondary-index entries: vw = 0).
//
// encode builds the image from the slotted page the tree works on, without
// slots or the value heap's garbage; decode turns it back into that page,
// with the value heap compacted.
const (
	imgLeaf = 1 << iota // a leaf; else an inner page, always imgFOR
	imgFOR              // values frame-of-reference coded
	imgLens             // a length column, then the values

	imgFixed = 8 // the header up to the key base
)

// imgHead returns the length of an image's header: its fixed part, the key
// base, and under imgFOR the value base.
func imgHead(flags byte) int {
	if flags&imgFOR != 0 {
		return imgFixed + 16
	}
	return imgFixed + 8
}

// byteWidth returns the bytes needed to hold x.
func byteWidth(x uint64) int { return (bits.Len64(x) + 7) / 8 }

// column is an image's column of w-byte entries, w ≤ 8, entry i standing for
// base + entry << shift. Its bytes run at least 8 past each entry's start, so
// an entry is read as one 8-byte load and masked.
type column struct {
	b          []byte
	w          int
	mask, base uint64
	shift      int
}

func newColumn(b []byte, w int, base uint64, shift int) column {
	return column{b: b, w: w, mask: 1<<(8*w) - 1, base: base, shift: shift}
}

// at returns entry i. The shift is < 64, so masking it with 63 changes
// nothing but spares the shift its range check.
func (c column) at(i int) uint64 {
	return c.base + (binary.LittleEndian.Uint64(c.b[i*c.w:])&c.mask)<<(c.shift&63)
}

// appendW appends the low w bytes of v, w ≤ 8, to b.
func appendW(b []byte, v uint64, w int) []byte {
	return binary.LittleEndian.AppendUint64(b, v)[:len(b)+w]
}

// frame returns the base and shift that code col as (v - base) >> shift, with
// a shift only if shifted is set, and the byte width of the widest code. Two
// entries' difference and their XOR end in the same number of zero bits, so
// the shift is read off the XORs with the first entry.
func frame(col []uint64, shifted bool) (base uint64, shift, w int) {
	if len(col) == 0 {
		return 0, 0, 0
	}
	base, hi, low := col[0], col[0], uint64(0)
	for _, v := range col {
		base, hi, low = min(base, v), max(hi, v), low|(v^col[0])
	}
	if shifted && low != 0 {
		shift = bits.TrailingZeros64(low)
	}
	return base, shift, byteWidth((hi - base) >> shift)
}

// codec is the scratch a pager encodes and decodes pages in: one page image
// on its way to or from the medium, and 8 bytes of slack for column.at; and
// encode's key and value columns before they are coded.
type codec struct {
	img        []byte
	keys, vals []uint64
}

func newCodec(psize int) codec { return codec{img: make([]byte, psize+8)} }

// encode returns page buf's image, built in c.img. No page the tree makes has
// an image larger than the page; one that did is an error.
func (c *codec) encode(buf []byte) ([]byte, error) {
	n, leaf := count(buf), isLeaf(buf)
	keys, vals := c.keys[:0], c.vals[:0]
	flags, vw := byte(imgFOR), 0 // vw: the widest value, until it is a column's width
	if leaf {
		flags = imgLeaf
	}
	for i := 0; i < n; i++ {
		if !leaf {
			keys, vals = append(keys, innerKey(buf, i)), append(vals, innerChild(buf, i))
			continue
		}
		v := leafVal(buf, i)
		keys = append(keys, leafKey(buf, i))
		if i > 0 && len(v) != vw {
			flags |= imgLens
		}
		if vw = max(vw, len(v)); len(v) == 8 {
			vals = append(vals, binary.LittleEndian.Uint64(v))
		}
	}
	if flags == imgLeaf && vw == 8 {
		flags |= imgFOR
	}
	c.keys, c.vals = keys, vals
	kbase, _, kw := frame(keys, false)
	var vbase uint64
	var shift int
	switch {
	case flags&imgFOR != 0:
		vbase, shift, vw = frame(vals, true)
	case flags&imgLens != 0:
		vw = byteWidth(uint64(vw))
	}

	img := append(c.img[:0], flags, byte(kw))
	img = binary.LittleEndian.AppendUint16(img, uint16(n))
	img = binary.LittleEndian.AppendUint16(img, uint16(vw))
	img = append(img, byte(shift), 0)
	img = binary.LittleEndian.AppendUint64(img, kbase)
	if flags&imgFOR != 0 {
		img = binary.LittleEndian.AppendUint64(img, vbase)
	}
	for _, k := range keys {
		img = appendW(img, k-kbase, kw)
	}
	if flags&imgFOR != 0 {
		for _, v := range vals {
			img = appendW(img, (v-vbase)>>shift, vw)
		}
	}
	for i := 0; flags&imgLens != 0 && i < n; i++ {
		img = appendW(img, uint64(len(leafVal(buf, i))), vw)
	}
	for i := 0; flags&imgFOR == 0 && i < n; i++ {
		img = append(img, leafVal(buf, i)...)
	}
	if len(img) > len(buf) {
		return nil, fmt.Errorf("cowbtree: a %d-byte page image overruns the %d-byte page", len(img), len(buf))
	}
	return img, nil
}

// imgHeader is an image's fixed header, checked.
type imgHeader struct {
	flags            byte
	kw, n, vw, shift int
}

// parseHeader reads an image's fixed header and checks every field against
// a page of psize bytes: the flags, the widths, the shift, and the count —
// by the bytes its columns take in the image and the slotted page they decode
// into takes in the tree's buffer, values included unless a length column has
// yet to say how long they are. It returns the header and the length of the
// image up to the end of its value column.
func parseHeader(b []byte, psize int) (h imgHeader, end int, err error) {
	h = imgHeader{flags: b[0], kw: int(b[1]), n: int(binary.LittleEndian.Uint16(b[2:])),
		vw: int(binary.LittleEndian.Uint16(b[4:])), shift: int(b[6])}
	leaf, coded, lens := h.flags&imgLeaf != 0, h.flags&imgFOR != 0, h.flags&imgLens != 0
	switch {
	case h.flags&^(imgLeaf|imgFOR|imgLens) != 0 || coded && lens || !leaf && !coded:
		return h, 0, fmt.Errorf("flags %#x name no page", h.flags)
	case h.kw > 8:
		return h, 0, fmt.Errorf("%d-byte key deltas", h.kw)
	case (coded || lens) && h.vw > 8:
		return h, 0, fmt.Errorf("%d-byte value column entries", h.vw)
	case coded && h.shift >= 64:
		return h, 0, fmt.Errorf("values shifted by %d", h.shift)
	}
	end = imgHead(h.flags) + h.n*(h.kw+h.vw)
	page := pHdr + h.n*innerEnt
	switch {
	case leaf && coded:
		page = pHdr + h.n*(leafSlot+8)
	case leaf && lens:
		page = pHdr + h.n*leafSlot
	case leaf:
		page = pHdr + h.n*(leafSlot+h.vw)
	}
	if end > psize || page > psize {
		return h, 0, fmt.Errorf("%d entries (flags %#x) overrun a %d-byte page", h.n, h.flags, psize)
	}
	return h, end, nil
}

// decode decodes an image into the slotted page buf and returns the image's
// length. fetch(off, n) brings the image's bytes [off, off+n) into c.img, or
// refuses them: the fixed header first, then the columns, then under imgLens
// the values. So no field is used before it is checked, and no byte past the
// image is asked for.
func (c *codec) decode(buf []byte, fetch func(off, n int) error) (int, error) {
	img := c.img
	if err := fetch(0, imgFixed); err != nil {
		return 0, err
	}
	h, end, err := parseHeader(img, len(buf))
	if err != nil {
		return 0, err
	}
	if err := fetch(imgFixed, end-imgFixed); err != nil {
		return 0, err
	}
	head, coded, lens := imgHead(h.flags), h.flags&imgFOR != 0, h.flags&imgLens != 0
	keys := newColumn(img[head:], h.kw, binary.LittleEndian.Uint64(img[imgFixed:]), 0)
	raw := img[head+h.n*h.kw:] // the value column
	vals := newColumn(raw, h.vw, 0, 0)
	if coded {
		vals = newColumn(raw, h.vw, binary.LittleEndian.Uint64(img[imgFixed+8:]), h.shift)
	}
	if h.flags&imgLeaf == 0 {
		for i, e := 0, buf[pHdr:pHdr+h.n*innerEnt]; i < h.n; i, e = i+1, e[innerEnt:] {
			binary.LittleEndian.PutUint64(e, keys.at(i))
			binary.LittleEndian.PutUint64(e[8:], vals.at(i))
		}
		buf[pFlags], buf[pFlags+1] = 0, 0
		setCount(buf, h.n)
		setDataEnd(buf, len(buf))
		return end, nil
	}

	size := h.n * h.vw // the values' bytes
	switch {
	case coded:
		size = h.n * 8
	case lens:
		size = 0
		for i := 0; i < h.n; i++ {
			size += int(min(vals.at(i), uint64(len(buf))))
		}
		if end+size > len(buf) || pHdr+h.n*leafSlot+size > len(buf) {
			return 0, fmt.Errorf("%d values of %d bytes overrun a %d-byte page", h.n, size, len(buf))
		}
		if err := fetch(end, size); err != nil {
			return 0, err
		}
		raw, end = img[end:], end+size
	}
	heap := len(buf) - size
	off, voff := heap, 0 // where the next value goes in buf, and where it is in raw
	for i, s := 0, buf[pHdr:pHdr+h.n*leafSlot]; i < h.n; i, s = i+1, s[leafSlot:] {
		binary.LittleEndian.PutUint64(s, keys.at(i))
		w := h.vw
		switch {
		case coded:
			binary.LittleEndian.PutUint64(buf[off:], vals.at(i))
			w = 8
		case lens:
			w = int(vals.at(i))
			fallthrough
		default:
			copy(buf[off:off+w], raw[voff:])
			voff += w
		}
		binary.LittleEndian.PutUint32(s[8:], uint32(off)|uint32(w)<<16) // valOff, valLen
		off += w
	}
	buf[pFlags], buf[pFlags+1] = 1, 0
	setCount(buf, h.n)
	setDataEnd(buf, heap)
	return end, nil
}
