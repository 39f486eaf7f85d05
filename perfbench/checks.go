package main

import (
	"fmt"

	"zugchain/internal/crypto"
	"zugchain/internal/node"
)

// checkChains runs the output checks on the replicas' chains after a run:
// every chain passes VerifyChain; the chains agree block for block on
// their common prefix; no payload is logged twice within one chain; and
// every logged payload carries a record id and equals the bytes generated
// for that record (valid reports whether p is a payload the benchmark
// generated for id). It returns one line per failed check.
func checkChains(nodes []*node.Node, parse func([]byte) (uint64, bool), valid func(id uint64, p []byte) bool) []string {
	var problems []string
	var ref *node.Node
	refIdx := 0
	for i, n := range nodes {
		if n == nil {
			continue
		}
		s := n.Store()
		if err := s.VerifyChain(); err != nil {
			problems = append(problems, fmt.Sprintf("replica %d: chain does not verify: %v", i, err))
		}
		seen := make(map[crypto.Digest]string)
		for idx := s.Base() + 1; idx <= s.HeadIndex(); idx++ {
			b, err := s.Get(idx)
			if err != nil {
				problems = append(problems, fmt.Sprintf("replica %d: block %d: %v", i, idx, err))
				continue
			}
			for k, e := range b.Entries {
				d := crypto.Hash(e.Payload)
				id, ok := parse(e.Payload)
				at := fmt.Sprintf("block %d entry %d (seq %d)", idx, k, e.Seq)
				if first, dup := seen[d]; dup {
					problems = append(problems, fmt.Sprintf("replica %d: record %d logged twice: %s and %s", i, id, first, at))
				}
				seen[d] = at
				if !ok || !valid(id, e.Payload) {
					problems = append(problems, fmt.Sprintf("replica %d: block %d seq %d: payload is not the generated record", i, idx, e.Seq))
				}
			}
		}
		if ref == nil {
			ref, refIdx = n, i
			continue
		}
		problems = append(problems, comparePrefix(ref, refIdx, n, i)...)
	}
	if ref == nil {
		problems = append(problems, "no replica alive to check")
	}
	return problems
}

// comparePrefix checks that two replicas hold identical blocks over the
// indices both still retain.
func comparePrefix(a *node.Node, ai int, b *node.Node, bi int) []string {
	sa, sb := a.Store(), b.Store()
	lo := max(sa.Base(), sb.Base()) + 1
	hi := min(sa.HeadIndex(), sb.HeadIndex())
	for idx := lo; idx <= hi; idx++ {
		x, errA := sa.Get(idx)
		y, errB := sb.Get(idx)
		if errA != nil || errB != nil {
			return []string{fmt.Sprintf("block %d: replica %d: %v, replica %d: %v", idx, ai, errA, bi, errB)}
		}
		if x.Hash() != y.Hash() {
			return []string{fmt.Sprintf("block %d differs between replica %d and replica %d", idx, ai, bi)}
		}
	}
	return nil
}
