package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"

	"repro/internal/apriori"
	"repro/internal/itemset"
	"repro/internal/rules"
)

// digester hashes a canonical little-endian encoding of mining output, so
// two results compare bit for bit without either being kept in memory.
// Words are staged in buf and hashed in blocks: millions of rules make
// per-word hash calls the dominant cost.
type digester struct {
	h   hash.Hash
	buf []byte
}

func newDigester() *digester { return &digester{h: sha256.New(), buf: make([]byte, 0, 64<<10)} }

func (d *digester) u64(v uint64) {
	if len(d.buf)+8 > cap(d.buf) {
		d.h.Write(d.buf)
		d.buf = d.buf[:0]
	}
	d.buf = binary.LittleEndian.AppendUint64(d.buf, v)
}

func (d *digester) items(s itemset.Itemset) {
	d.u64(uint64(len(s)))
	for _, it := range s {
		d.u64(uint64(it))
	}
}

func (d *digester) sum() string {
	d.h.Write(d.buf)
	d.buf = d.buf[:0]
	return hex.EncodeToString(d.h.Sum(nil))
}

// itemsetDigest hashes every frequent itemset with its support, level by
// level in the result's canonical order. Empty levels are skipped: whether
// an engine records the final level that found nothing (ccpd does when its
// last candidates all fail) says nothing about the itemsets.
func itemsetDigest(res *apriori.Result) string {
	d := newDigester()
	for k, fk := range res.ByK {
		if len(fk) == 0 {
			continue
		}
		d.u64(uint64(k))
		d.u64(uint64(len(fk)))
		for _, f := range fk {
			d.items(f.Items)
			d.u64(uint64(f.Count))
		}
	}
	return d.sum()
}

// rulesDigest hashes a rule list in its given (deterministic) order,
// including the exact bits of every floating-point field.
func rulesDigest(rs []rules.Rule) string {
	d := newDigester()
	d.u64(uint64(len(rs)))
	for _, r := range rs {
		d.items(r.Antecedent)
		d.items(r.Consequent)
		d.u64(uint64(r.Support))
		d.u64(math.Float64bits(r.SupportFrac))
		d.u64(math.Float64bits(r.Confidence))
		d.u64(math.Float64bits(r.Lift))
	}
	return d.sum()
}

// outputDigest is the digest pair one pipeline or snapshot is checked by.
type outputDigest struct {
	Itemsets string
	Rules    string
}
