package dacapo

// QueueUp hands each frame to the up queue of blocking stage i as a
// one-packet batch. Called before Start, it fills the stage's first pump
// round.
func QueueUp(r *Runtime, i int, frames [][]byte) {
	for _, f := range frames {
		bp := batchPool.Get()
		*bp = append(*bp, GetPacket(f))
		r.up[i].upQ <- bp
	}
}

// ReadRound runs one round of the transport reader on the caller, as the
// reader goroutine does once the runtime runs, and returns the packet
// count of each batch the round handed to blocking stage i's up queue.
func ReadRound(r *Runtime, i int) ([]int, error) {
	err := r.readRound(r.readEx)
	var sizes []int
	for len(r.up[i].upQ) > 0 {
		bp := <-r.up[i].upQ
		sizes = append(sizes, len(*bp))
		releaseBatch(bp)
	}
	return sizes, err
}

// StaleCtrlFrame is a control frame the threaded reader drops: a COMMIT
// left over from a failed reconfiguration attempt.
func StaleCtrlFrame() []byte { return append(ctrlMagic[:], ctrlCommit) }
