package coll

// Hierarchical (two-level, SMP-aware) algorithms in the style of
// MVAPICH/Open MPI's coll/han: intra-node phases use the shared-memory
// link, inter-node phases run over node leaders only. The paper's related
// work (Parsons & Pai; Alizadeh et al.) builds arrival-aware variants on
// exactly this structure.

func init() {
	register(Algorithm{Coll: Allreduce, Name: "two_level", Abbrev: "2-Lvl", Run: allreduceTwoLevel})
	register(Algorithm{Coll: Allgather, ID: 6, Name: "neighbor_exchange", Abbrev: "Nbr-Ex", Run: allgatherNeighborExchange})
}

// allreduceTwoLevel: binomial reduce to each node leader, recursive
// doubling allreduce across the leaders, binomial bcast back down.
func allreduceTwoLevel(a *Args) ([]float64, error) {
	if err := checkReduceArgs(a); err != nil {
		return nil, err
	}
	p, me := a.size(), a.me()
	if p == 1 {
		return clonev(a.Data), nil
	}
	plat := a.R.World().Platform()
	cores := plat.CoresPerNode
	myNode := me / cores
	nodeLo := myNode * cores
	nodeHi := minInt(nodeLo+cores, p)
	leader := nodeLo
	nLeaders := ceilDiv(p, cores)

	// Phase 1: intra-node binomial reduce to the leader (virtual ranks
	// within the node).
	buf := clonev(a.Data)
	nLocal := nodeHi - nodeLo
	if nLocal > 1 {
		v := me - nodeLo
		hi := 1
		for hi < nLocal {
			hi <<= 1
		}
		for bit := 1; bit < hi; bit <<= 1 {
			if v&bit != 0 {
				a.R.Send(nodeLo+(v^bit), a.Tag, buf, a.Bytes(a.Count))
				break
			}
			src := v | bit
			if src < nLocal {
				m := a.R.Recv(nodeLo+src, a.Tag)
				accumulate(a, buf, m.Data, a.Count)
			}
		}
	}

	// Phase 2: recursive doubling across leaders (leaders are ranks
	// 0, cores, 2*cores, ...; non-power-of-two leader counts fold).
	if me == leader && nLeaders > 1 {
		leaderRank := myNode
		toReal := func(l int) int { return l * cores }
		pof2 := nearestPow2LE(nLeaders)
		rem := nLeaders - pof2
		newRank := -1
		if leaderRank < 2*rem {
			if leaderRank%2 == 0 {
				a.R.Send(toReal(leaderRank+1), a.Tag+1, buf, a.Bytes(a.Count))
			} else {
				m := a.R.Recv(toReal(leaderRank-1), a.Tag+1)
				accumulate(a, buf, m.Data, a.Count)
				newRank = leaderRank / 2
			}
		} else {
			newRank = leaderRank - rem
		}
		toGroupReal := func(g int) int {
			if g >= rem {
				return toReal(g + rem)
			}
			return toReal(2*g + 1)
		}
		if newRank >= 0 {
			for b := 1; b < pof2; b <<= 1 {
				peer := toGroupReal(newRank ^ b)
				m := a.R.Sendrecv(peer, a.Tag+2, clonev(buf), a.Bytes(a.Count), peer, a.Tag+2)
				accumulate(a, buf, m.Data, a.Count)
			}
		}
		if leaderRank < 2*rem {
			if leaderRank%2 == 0 {
				m := a.R.Recv(toReal(leaderRank+1), a.Tag+3)
				buf = m.Data
			} else {
				a.R.Send(toReal(leaderRank-1), a.Tag+3, buf, a.Bytes(a.Count))
			}
		}
	}

	// Phase 3: intra-node binomial bcast from the leader.
	if nLocal > 1 {
		v := me - nodeLo
		if v != 0 {
			low := v & (-v)
			m := a.R.Recv(nodeLo+(v^low), a.Tag+4)
			buf = clonev(m.Data)
		}
		for bit := 1; bit < nLocal; bit <<= 1 {
			if v&bit != 0 {
				break
			}
			c := v | bit
			if c < nLocal {
				a.R.Send(nodeLo+c, a.Tag+4, buf, a.Bytes(a.Count))
			}
		}
	}
	return buf, nil
}

// allgatherNeighborExchange implements Open MPI's neighbor-exchange
// allgather (Chen et al.): p/2 steps alternating between the left and
// right ring neighbors; step 0 trades single blocks, later steps trade
// the pair of blocks received in the previous step. Requires even p;
// odd communicators fall back to the ring algorithm, as Open MPI does.
func allgatherNeighborExchange(a *Args) ([]float64, error) {
	if err := checkGatherArgs(a); err != nil {
		return nil, err
	}
	p, me := a.size(), a.me()
	if p == 1 {
		return clonev(a.Data), nil
	}
	if p%2 != 0 {
		return allgatherRing(a)
	}
	res := newLike(a.Data, p*a.Count)
	copy(chunk(a, res, me), a.Data)

	even := me%2 == 0
	right := (me + 1) % p
	left := (me - 1 + p) % p
	// Messages carry their block ids in-band ([id0, id1, payload...]; timing
	// mode sends the ids alone); the ids are bookkeeping and are not charged
	// as wire bytes.
	pack := func(blocks []int) []float64 {
		out := make([]float64, 0, len(blocks))
		for _, b := range blocks {
			out = append(out, float64(b))
		}
		for _, b := range blocks {
			out = append(out, chunk(a, res, b)...)
		}
		return out
	}
	unpack := func(data []float64, nBlocks int) []int {
		ids := make([]int, nBlocks)
		for i := range ids {
			ids[i] = int(data[i])
			if res != nil {
				copy(chunk(a, res, ids[i]), chunk(a, data[nBlocks:], i))
			}
		}
		return ids
	}

	// Step 0: exchange own block with the first neighbor.
	first := right
	if !even {
		first = left
	}
	m := a.R.Sendrecv(first, a.Tag, pack([]int{me}), a.Bytes(a.Count), first, a.Tag)
	lastPair := append([]int{me}, unpack(m.Data, 1)...)

	for s := 1; s < p/2; s++ {
		peer := left
		if (s%2 == 0) == even { // alternate sides, starting opposite to step 0
			peer = right
		}
		tag := a.Tag + s
		mm := a.R.Sendrecv(peer, tag, pack(lastPair), a.Bytes(2*a.Count), peer, tag)
		lastPair = unpack(mm.Data, 2)
	}
	return res, nil
}
