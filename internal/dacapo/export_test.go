package dacapo

// QueueUp hands each frame to the up queue of blocking stage i as a
// one-packet batch, as the transport reader does once the runtime runs.
// Called before Start, it fills the stage's first pump round.
func QueueUp(r *Runtime, i int, frames [][]byte) {
	for _, f := range frames {
		bp := batchPool.Get()
		*bp = append(*bp, GetPacket(f))
		r.up[i].upQ <- bp
	}
}
