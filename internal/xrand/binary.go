//go:build go1.24

package xrand

// AppendBinary appends the generator's position in its stream (see
// encoding.BinaryAppender): the PCG state, not the seed material Split
// reads, which the RNG's construction fixes. It allocates nothing.
func (r *RNG) AppendBinary(b []byte) ([]byte, error) { return r.pcg.AppendBinary(b) }
