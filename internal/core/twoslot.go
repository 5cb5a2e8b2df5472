package core

import (
	"encoding/binary"
	"hash/crc32"

	"nstore/internal/pmfs"
)

// TwoSlot is a durable record kept in two files written in turn, so the
// newest valid copy is never the one being overwritten: a crash mid-write,
// a torn fsync included, invalidates at most the slot in progress, and Load
// falls back to the other. It replaces a tmp-file + rename swap, which is not
// crash-atomic on pmfs. A slot is: magic, sequence, the caller's Words header
// words, payload length (u64), a CRC-32C (u32 + pad) over everything from the
// sequence on, then the payload. The slot of sequence n is Names[n%2].
type TwoSlot struct {
	FS    *pmfs.FS
	Names [2]string
	Magic uint64
	Words int
	// Seq is the sequence of the newest valid slot (0: none). It advances only
	// when a write is durable, so a failed write retries into the same slot.
	Seq uint64
}

var slotCRC = crc32.MakeTable(crc32.Castagnoli)

// Bytes is the size of a slot holding an n-byte payload.
func (r *TwoSlot) Bytes(n int) int64 { return int64(32 + 8*r.Words + n) }

// checksum covers img's header from the sequence word up to the CRC, and the
// payload behind it.
func (r *TwoSlot) checksum(img []byte) uint32 {
	hdr := int(r.Bytes(0))
	return crc32.Update(crc32.Checksum(img[8:hdr-8], slotCRC), slotCRC, img[hdr:])
}

// Write makes words (Words of them) and payload the record's next sequence:
// one truncate, write and fsync of the slot not holding the newest.
func (r *TwoSlot) Write(words []uint64, payload []byte) error {
	le := binary.LittleEndian
	hdr := int(r.Bytes(0))
	img := make([]byte, hdr+len(payload))
	le.PutUint64(img, r.Magic)
	le.PutUint64(img[8:], r.Seq+1)
	for i, w := range words {
		le.PutUint64(img[16+8*i:], w)
	}
	le.PutUint64(img[hdr-16:], uint64(len(payload)))
	copy(img[hdr:], payload)
	le.PutUint32(img[hdr-8:], r.checksum(img))
	f, err := r.FS.OpenOrCreate(r.Names[(r.Seq+1)%2])
	if err != nil {
		return err
	}
	if err := f.Truncate(0); err != nil {
		return err
	}
	if _, err := f.WriteAt(img, 0); err != nil {
		return err
	}
	if err := f.Sync(); err != nil {
		return err
	}
	r.Seq++
	return nil
}

// Load returns the header words and payload of the newest valid slot and
// sets Seq to its sequence; ok is false when neither slot is valid. A missing,
// torn or corrupt slot — a bad magic, a length past the file, a checksum
// mismatch in any word it covers — is not valid.
func (r *TwoSlot) Load() (words []uint64, payload []byte, ok bool) {
	for _, name := range r.Names {
		if seq, w, p, valid := r.read(name); valid && (!ok || seq > r.Seq) {
			r.Seq, words, payload, ok = seq, w, p, true
		}
	}
	return words, payload, ok
}

func (r *TwoSlot) read(name string) (seq uint64, words []uint64, payload []byte, ok bool) {
	le := binary.LittleEndian
	hdr := int(r.Bytes(0))
	f, err := r.FS.OpenFile(name)
	if err != nil || f.Size() < int64(hdr) {
		return 0, nil, nil, false
	}
	img := make([]byte, f.Size())
	if _, err := f.ReadAt(img, 0); err != nil {
		return 0, nil, nil, false
	}
	n := le.Uint64(img[hdr-16:])
	if le.Uint64(img) != r.Magic || n > uint64(len(img)-hdr) {
		return 0, nil, nil, false
	}
	img = img[:hdr+int(n)]
	if r.checksum(img) != le.Uint32(img[hdr-8:]) {
		return 0, nil, nil, false
	}
	for i := 0; i < r.Words; i++ {
		words = append(words, le.Uint64(img[16+8*i:]))
	}
	return le.Uint64(img[8:]), words, img[hdr:], true
}
