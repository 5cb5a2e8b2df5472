package nvm

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"io"
	"time"
)

// Snapshots serialize the *durable medium* of a device — exactly the bytes
// that would survive a power failure. Volatile cache contents and pending
// controller writes are deliberately excluded, so restoring a snapshot is
// semantically identical to powering the NVM module back on: engines run
// their normal recovery protocols against it.

const snapMagic = 0x4e564d534e415031 // "NVMSNAP1"

// WriteSnapshot writes the durable medium and device geometry to w. The
// payload is gzip-compressed and length-prefixed so multiple snapshots can
// be concatenated in one stream.
func (d *Device) WriteSnapshot(w io.Writer) error {
	var comp bytes.Buffer
	zw := gzip.NewWriter(&comp)
	if _, err := zw.Write(d.data); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	cfg := d.Config()
	var hdr [56]byte
	binary.LittleEndian.PutUint64(hdr[0:], snapMagic)
	binary.LittleEndian.PutUint64(hdr[8:], uint64(cfg.Size))
	binary.LittleEndian.PutUint64(hdr[16:], uint64(cfg.CacheSize))
	binary.LittleEndian.PutUint64(hdr[24:], uint64(cfg.CacheAssoc))
	binary.LittleEndian.PutUint64(hdr[32:], uint64(cfg.ReadMissExtra))
	binary.LittleEndian.PutUint64(hdr[40:], uint64(cfg.WriteBackExtra))
	binary.LittleEndian.PutUint64(hdr[48:], uint64(comp.Len()))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(comp.Bytes())
	return err
}

// CloneMedium returns a new device holding a copy of d's durable medium under
// d's geometry, with a cold cache and nothing pending: what writing a snapshot
// and reading it back gives, without serializing. A walk over crash outcomes
// takes one copy per outcome.
func (d *Device) CloneMedium() *Device {
	c := NewDevice(d.Config())
	copy(c.data, d.data)
	return c
}

// ReadSnapshot reconstructs a device from a snapshot. The returned device
// has a cold (empty) cache, as after a restart. Reading consumes exactly
// one snapshot, so concatenated snapshots can be read in sequence.
func ReadSnapshot(r io.Reader) (*Device, error) {
	var hdr [56]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint64(hdr[0:]) != snapMagic {
		return nil, fmt.Errorf("nvm: not a snapshot file")
	}
	cfg := Config{
		Size:           int64(binary.LittleEndian.Uint64(hdr[8:])),
		CacheSize:      int(binary.LittleEndian.Uint64(hdr[16:])),
		CacheAssoc:     int(binary.LittleEndian.Uint64(hdr[24:])),
		ReadMissExtra:  time.Duration(binary.LittleEndian.Uint64(hdr[32:])),
		WriteBackExtra: time.Duration(binary.LittleEndian.Uint64(hdr[40:])),
		FlushLineCost:  ProfileDRAM.FlushLineCost,
		FenceCost:      ProfileDRAM.FenceCost,
	}
	if cfg.Size <= 0 || cfg.Size > 64<<30 {
		return nil, fmt.Errorf("nvm: implausible snapshot size %d", cfg.Size)
	}
	compLen := int64(binary.LittleEndian.Uint64(hdr[48:]))
	comp := make([]byte, compLen)
	if _, err := io.ReadFull(r, comp); err != nil {
		return nil, fmt.Errorf("nvm: truncated snapshot: %w", err)
	}
	d := NewDevice(cfg)
	zr, err := gzip.NewReader(bytes.NewReader(comp))
	if err != nil {
		return nil, err
	}
	defer zr.Close()
	if _, err := io.ReadFull(zr, d.data); err != nil {
		return nil, fmt.Errorf("nvm: truncated snapshot payload: %w", err)
	}
	return d, nil
}
