// Custom algorithm: register a user-defined Alltoall implementation and
// evaluate it with the library's pattern-aware methodology against the
// built-in Open MPI algorithms. The custom schedule here is a simple
// "spread linear": like basic linear, but each rank staggers its send
// order by its own rank so that no destination is hit by everyone at once
// — a folk remedy for incast that the robustness analysis can judge.
package main

import (
	"fmt"
	"log"

	"collsel"
)

// spreadLinearAlltoall posts all receives, then sends to destinations in a
// rank-rotated order with a small pipeline window.
//
// Selection runs every algorithm in timing mode, with a nil a.Data: the
// schedule and its byte counts are all that matter, so a nil payload stays
// nil and the result is nil too.
//
// Wait each request exactly once. Like MPI_Wait, Request.Wait releases
// the request and the simulator recycles it for a later operation, so a
// second Wait on it panics.
func spreadLinearAlltoall(a *collsel.Args) ([]float64, error) {
	r := a.R
	p, me := r.Size(), r.ID()
	// block returns rank d's Count elements of v (nil for a nil v).
	block := func(v []float64, d int) []float64 {
		if v == nil {
			return nil
		}
		return v[d*a.Count : (d+1)*a.Count]
	}
	var res []float64
	if a.Data != nil {
		res = make([]float64, p*a.Count)
	}
	copy(block(res, me), block(a.Data, me))

	type pendingRecv struct {
		src int
		req *collsel.Request
	}
	recvs := make([]pendingRecv, 0, p-1)
	for i := 1; i < p; i++ {
		src := (me + i) % p
		recvs = append(recvs, pendingRecv{src, r.Irecv(src, a.Tag)})
	}
	// Rotated send order with window 4.
	var window []*collsel.Request
	for i := 1; i < p; i++ {
		dst := (me + i) % p
		window = append(window, r.Isend(dst, a.Tag, block(a.Data, dst), a.Bytes(a.Count)))
		if len(window) > 4 {
			window[0].Wait()
			window = window[1:]
		}
	}
	for _, q := range window {
		q.Wait()
	}
	for _, pr := range recvs {
		m := pr.req.Wait()
		copy(block(res, pr.src), m.Data)
	}
	return res, nil
}

func main() {
	err := collsel.RegisterAlgorithm(collsel.Algorithm{
		Coll:   collsel.Alltoall,
		Name:   "spread_linear",
		Abbrev: "Spread",
		Run:    spreadLinearAlltoall,
	})
	if err != nil {
		log.Fatal(err)
	}

	machine := collsel.Hydra()
	algs := append(collsel.TableII(collsel.Alltoall), mustByName(collsel.Alltoall, "spread_linear"))

	m, noDelay, err := collsel.BuildMatrix(collsel.GridConfig{
		Platform:   machine,
		Procs:      96,
		Algorithms: algs,
		Shapes:     collsel.ArtificialShapes(),
		MsgBytes:   32768,
		Policy:     collsel.SkewAvgRuntime,
		Reps:       3,
		Seed:       5,
	})
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("Alltoall on %s, 32 KiB per pair, 96 procs\n\n", machine.Name)
	fmt.Printf("%-16s  %-14s  %s\n", "algorithm", "no-delay d-hat", "robustness score")
	ranking, err := m.SelectRobust()
	if err != nil {
		log.Fatal(err)
	}
	scoreOf := map[string]float64{}
	for _, ch := range ranking {
		scoreOf[ch.Algorithm.Name] = ch.Score
	}
	for j, al := range algs {
		fmt.Printf("%-16s  %10.1f us  %.3f\n", al.Name, noDelay[j]/1000, scoreOf[al.Name])
	}
	fmt.Printf("\nmost robust: %s\n", ranking[0].Algorithm.Name)
}

func mustByName(c collsel.Collective, name string) collsel.Algorithm {
	al, ok := collsel.AlgorithmByName(c, name)
	if !ok {
		log.Fatalf("%s not found", name)
	}
	return al
}
