package hype

// Ablation benchmarks for the OptHyPE index components (internal package:
// they toggle analysis tables directly).

import (
	"testing"

	"smoqe/internal/datagen"
	"smoqe/internal/hospital"
	"smoqe/internal/mfa"
	"smoqe/internal/xpath"
)

// BenchmarkIndexAblation evaluates RX-C with (a) no index, (b) the
// alphabet-only index, and (c) the full index with text blooms —
// quantifying each pruning component.
func BenchmarkIndexAblation(b *testing.B) {
	doc := datagen.Generate(datagen.DefaultConfig(3000))
	m := mfa.MustCompile(xpath.MustParse(hospital.RXC))
	idx := BuildIndex(doc, true)

	b.Run("HyPE-no-index", func(b *testing.B) {
		e := New(m)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Eval(doc.Root)
		}
	})
	b.Run("OptHyPE-alphabet-only", func(b *testing.B) {
		e := NewOpt(m, idx)
		// Disable text refutation: mark every AFA state always-possible.
		for g := range e.afaAlways {
			for t := range e.afaAlways[g] {
				e.afaAlways[g][t] = true
			}
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Eval(doc.Root)
		}
	})
	b.Run("OptHyPE-full", func(b *testing.B) {
		e := NewOpt(m, idx)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			e.Eval(doc.Root)
		}
	})
}
