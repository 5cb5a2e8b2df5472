package nvm

// ctrlLines is the capacity of the simulated memory controller's write
// buffer, in cache lines (64 KB). When a line arrives and the buffer is full,
// everything buffered drains to the medium first. That is only ever a legal
// outcome: an un-fenced line may become durable at any time, as a dirty
// eviction already makes it. The bound keeps a megabyte burst of streamed or
// written-back lines (a checkpoint, an SSTable, a group of CoW pages under one
// fsync) from growing simulator state with it.
const ctrlLines = 1024

// ctrlBuffer holds the lines that were written back or streamed but not yet
// fenced, in arrival order: slot i is line keys[i] with its 64 bytes at
// buf[i*LineSize:]. A line written back again overwrites its slot in place; a
// line superseded by a dirty eviction leaves a dead slot (keys[i] < 0) behind
// until the next drain.
type ctrlBuffer struct {
	keys  []int64
	buf   []byte
	slot  map[int64]int32 // line → index into keys, live slots only
	limit int             // ctrlLines; a test lifts it to compare with an unbounded buffer
}

// put buffers the line's 64 bytes at the head of p, superseding an older
// buffered copy. A full buffer drains to medium first.
func (c *ctrlBuffer) put(line int64, p []byte, medium []byte) {
	if i, ok := c.slot[line]; ok {
		copy(c.buf[int(i)*LineSize:], p[:LineSize])
		return
	}
	if len(c.keys) >= c.limit {
		c.drain(medium)
	}
	c.slot[line] = int32(len(c.keys))
	c.keys = append(c.keys, line)
	c.buf = append(c.buf, p[:LineSize]...)
}

// get returns the buffered copy of the line, or nil.
func (c *ctrlBuffer) get(line int64) []byte {
	if len(c.slot) == 0 {
		return nil
	}
	i, ok := c.slot[line]
	if !ok {
		return nil
	}
	return c.buf[int(i)*LineSize : int(i+1)*LineSize]
}

// remove drops the buffered copy of the line, if any.
func (c *ctrlBuffer) remove(line int64) {
	if len(c.slot) == 0 {
		return
	}
	if i, ok := c.slot[line]; ok {
		c.keys[i] = -1
		delete(c.slot, line)
	}
}

// each calls fn for every buffered line in arrival order.
func (c *ctrlBuffer) each(fn func(line int64, p []byte)) {
	for i, line := range c.keys {
		if line >= 0 {
			fn(line, c.buf[i*LineSize:(i+1)*LineSize])
		}
	}
}

// drain copies every buffered line to the medium and empties the buffer.
func (c *ctrlBuffer) drain(medium []byte) {
	c.each(func(line int64, p []byte) { copy(medium[line:line+LineSize], p) })
	c.reset()
}

// reset empties the buffer without writing anything. The map is emptied key
// by key: clear() costs its high-water size, which a fence after a two-line
// commit should not pay for an earlier burst.
func (c *ctrlBuffer) reset() {
	for _, line := range c.keys {
		if line >= 0 {
			delete(c.slot, line)
		}
	}
	c.keys = c.keys[:0]
	c.buf = c.buf[:0]
}
