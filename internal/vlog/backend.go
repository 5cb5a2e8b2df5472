package vlog

import (
	"fmt"
	"sort"
	"strconv"
	"strings"

	"nstore/internal/pmfs"
)

// FSBackend stores segments as pmfs files named <prefix><id>. A segment is a
// flat byte extent the Manager appends CRC-tailed records into, written
// strictly sequentially and never modified after being sealed (except a
// durable truncation when a crash left debris past the checkpointed head).
// Segment ids are assigned by the Manager, start at 1, and are never reused.
type FSBackend struct {
	fs     *pmfs.FS
	prefix string
}

// NewFSBackend returns a backend storing segments as "<prefix>NNNNNN" files.
func NewFSBackend(fs *pmfs.FS, prefix string) *FSBackend {
	return &FSBackend{fs: fs, prefix: prefix}
}

func (b *FSBackend) name(id uint32) string {
	return fmt.Sprintf("%s%06d", b.prefix, id)
}

func (b *FSBackend) create(id uint32) (*pmfs.File, error) { return b.fs.Create(b.name(id)) }

func (b *FSBackend) open(id uint32) (*pmfs.File, error) { return b.fs.OpenFile(b.name(id)) }

func (b *FSBackend) Remove(id uint32) error {
	return b.fs.Remove(b.name(id))
}

func (b *FSBackend) List() ([]uint32, error) {
	var ids []uint32
	for _, name := range b.fs.List() {
		if !strings.HasPrefix(name, b.prefix) {
			continue
		}
		n, err := strconv.ParseUint(name[len(b.prefix):], 10, 32)
		if err != nil {
			continue
		}
		ids = append(ids, uint32(n))
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids, nil
}
