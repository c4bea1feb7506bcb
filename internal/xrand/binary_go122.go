//go:build !go1.24

package xrand

// AppendBinary appends the generator's position in its stream (see
// encoding.BinaryAppender): the PCG state, not the seed material Split
// reads, which the RNG's construction fixes. Before Go 1.24 the PCG has
// no AppendBinary, and its MarshalBinary allocates the state it returns.
func (r *RNG) AppendBinary(b []byte) ([]byte, error) {
	state, err := r.pcg.MarshalBinary()
	return append(b, state...), err
}
