package linalg

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"repro/internal/tensor"
)

func randTensor(r *rand.Rand, shape ...int) *tensor.Tensor {
	t := tensor.New(shape...)
	t.RandNormal(r, 1)
	return t
}

func TestSVDReconstructsExactly(t *testing.T) {
	r := rand.New(rand.NewPCG(42, 0))
	for _, dims := range [][2]int{{4, 4}, {6, 3}, {3, 6}, {1, 5}, {5, 1}} {
		a := randTensor(r, dims[0], dims[1])
		d := Decompose(a)
		back := d.Reconstruct()
		if !tensor.Equal(a, back, 1e-8) {
			t.Errorf("SVD reconstruct failed for %v", dims)
		}
	}
}

func TestSVDSingularValuesSorted(t *testing.T) {
	r := rand.New(rand.NewPCG(7, 0))
	a := randTensor(r, 8, 5)
	d := Decompose(a)
	for i := 1; i < len(d.S); i++ {
		if d.S[i] > d.S[i-1]+1e-12 {
			t.Fatalf("singular values not sorted: %v", d.S)
		}
		if d.S[i] < 0 {
			t.Fatalf("negative singular value: %v", d.S)
		}
	}
}

func TestSVDOrthonormalColumns(t *testing.T) {
	r := rand.New(rand.NewPCG(9, 0))
	a := randTensor(r, 7, 4)
	d := Decompose(a)
	utu := tensor.MatMul(tensor.Transpose(d.U), d.U)
	vtv := tensor.MatMul(tensor.Transpose(d.V), d.V)
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			want := 0.0
			if i == j {
				want = 1.0
			}
			if math.Abs(utu.At(i, j)-want) > 1e-8 {
				t.Fatalf("U not orthonormal at (%d,%d): %v", i, j, utu.At(i, j))
			}
			if math.Abs(vtv.At(i, j)-want) > 1e-8 {
				t.Fatalf("V not orthonormal at (%d,%d): %v", i, j, vtv.At(i, j))
			}
		}
	}
}

// Property: SVD reconstruction holds for random sizes and seeds.
func TestSVDReconstructProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 11))
		m, n := 1+r.IntN(8), 1+r.IntN(8)
		a := randTensor(r, m, n)
		d := Decompose(a)
		return tensor.Equal(a, d.Reconstruct(), 1e-7)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

func TestLowRankFactorsOfLowRankMatrix(t *testing.T) {
	// Build an exactly rank-2 matrix; rank-2 factors must reconstruct it.
	r := rand.New(rand.NewPCG(5, 0))
	a1 := randTensor(r, 6, 2)
	a2 := randTensor(r, 2, 5)
	a := tensor.MatMul(a1, a2)
	d := Decompose(a)
	f1, f2 := d.LowRankFactors(2)
	back := tensor.MatMul(f1, f2)
	if !tensor.Equal(a, back, 1e-8) {
		t.Errorf("rank-2 factorization of rank-2 matrix should be exact")
	}
	if f1.Dim(1) != 2 || f2.Dim(0) != 2 {
		t.Errorf("factor shapes wrong: %v %v", f1.Shape(), f2.Shape())
	}
}

func TestTruncationErrorDecreasesWithRank(t *testing.T) {
	r := rand.New(rand.NewPCG(3, 0))
	a := randTensor(r, 8, 8)
	d := Decompose(a)
	prev := math.Inf(1)
	for k := 1; k <= 8; k++ {
		f1, f2 := d.LowRankFactors(k)
		diff := a.Clone()
		diff.AddScaled(-1, tensor.MatMul(f1, f2))
		err := diff.Norm2()
		if err > prev+1e-9 {
			t.Fatalf("error increased with rank at k=%d: %v > %v", k, err, prev)
		}
		prev = err
	}
	if prev > 1e-8 {
		t.Errorf("full-rank factorization should be exact, err=%v", prev)
	}
}

func TestUnfoldFoldRoundtrip(t *testing.T) {
	r := rand.New(rand.NewPCG(13, 0))
	x := randTensor(r, 3, 4, 5)
	for mode := 0; mode < 3; mode++ {
		u := Unfold(x, mode)
		if u.Dim(0) != x.Dim(mode) || u.Dim(1) != x.Len()/x.Dim(mode) {
			t.Fatalf("unfold shape wrong for mode %d: %v", mode, u.Shape())
		}
		back := Fold(u, mode, x.Shape())
		if !tensor.Equal(x, back, 0) {
			t.Fatalf("fold(unfold) != identity for mode %d", mode)
		}
	}
}

func TestModeMulMatchesMatMulForMatrices(t *testing.T) {
	// For a 2-D tensor, ×₀ M is M*X and ×₁ M is X*Mᵀ.
	r := rand.New(rand.NewPCG(17, 0))
	x := randTensor(r, 4, 5)
	m := randTensor(r, 3, 4)
	got := ModeMul(x, m, 0)
	want := tensor.MatMul(m, x)
	if !tensor.Equal(got, want, 1e-10) {
		t.Errorf("mode-0 product mismatch")
	}
	m2 := randTensor(r, 2, 5)
	got2 := ModeMul(x, m2, 1)
	want2 := tensor.MatMul(x, tensor.Transpose(m2))
	if !tensor.Equal(got2, want2, 1e-10) {
		t.Errorf("mode-1 product mismatch")
	}
}

func TestHOOIFullRankIsExact(t *testing.T) {
	r := rand.New(rand.NewPCG(19, 0))
	x := randTensor(r, 3, 4, 2)
	tk := HOOI(x, []int{3, 4, 2})
	if !tensor.Equal(x, tk.Reconstruct(), 1e-7) {
		t.Errorf("full-rank HOOI should reconstruct exactly")
	}
}

func TestHOOIRecoversLowRankTensor(t *testing.T) {
	// Construct an exactly rank-(2,2,2) tensor and verify HOOI recovers it.
	r := rand.New(rand.NewPCG(23, 0))
	core := randTensor(r, 2, 2, 2)
	f1, f2, f3 := randTensor(r, 5, 2), randTensor(r, 6, 2), randTensor(r, 4, 2)
	x := ModeMul(ModeMul(ModeMul(core, f1, 0), f2, 1), f3, 2)
	tk := HOOI(x, []int{2, 2, 2})
	diff := x.Clone()
	diff.AddScaled(-1, tk.Reconstruct())
	if rel := diff.Norm2() / x.Norm2(); rel > 1e-6 {
		t.Errorf("HOOI failed to recover rank-(2,2,2) tensor, rel err %v", rel)
	}
	if tk.Params() >= x.Len() {
		t.Errorf("decomposition should compress: %d params vs %d elements", tk.Params(), x.Len())
	}
}

func TestHOOIErrorDecreasesWithRank(t *testing.T) {
	r := rand.New(rand.NewPCG(29, 0))
	x := randTensor(r, 6, 6, 6)
	prev := math.Inf(1)
	for k := 1; k <= 6; k++ {
		tk := HOOI(x, []int{k, k, k})
		diff := x.Clone()
		diff.AddScaled(-1, tk.Reconstruct())
		err := diff.Norm2()
		if err > prev+1e-6 {
			t.Fatalf("HOOI error increased at rank %d: %v > %v", k, err, prev)
		}
		prev = err
	}
}

func TestHOOIRankClamping(t *testing.T) {
	r := rand.New(rand.NewPCG(31, 0))
	x := randTensor(r, 2, 3, 2)
	tk := HOOI(x, []int{10, 10, 10})
	if tk.Ranks[0] != 2 || tk.Ranks[1] != 3 || tk.Ranks[2] != 2 {
		t.Errorf("ranks not clamped: %v", tk.Ranks)
	}
}

func BenchmarkSVD32x32(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 1))
	a := randTensor(r, 32, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Decompose(a)
	}
}

func BenchmarkHOOI(b *testing.B) {
	r := rand.New(rand.NewPCG(1, 2))
	x := randTensor(r, 8, 8, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		HOOI(x, []int{3, 3, 3})
	}
}

func TestHOOIRankBoundedByUnfolding(t *testing.T) {
	// A (16,1,2,2) tensor's mode-0 unfolding is 16x4: rank 8 on mode 0 must
	// clamp to 4, and Ranks must report the effective width.
	r := rand.New(rand.NewPCG(37, 0))
	x := randTensor(r, 16, 1, 2, 2)
	tk := HOOI(x, []int{8, 1, 2, 2})
	if tk.Ranks[0] != 4 {
		t.Errorf("mode-0 rank = %d, want 4 (unfolding bound)", tk.Ranks[0])
	}
	if tk.Factors[0].Dim(1) != tk.Ranks[0] {
		t.Errorf("factor width %d != reported rank %d", tk.Factors[0].Dim(1), tk.Ranks[0])
	}
	// Full effective rank: reconstruction is exact.
	if !tensor.Equal(x, tk.Reconstruct(), 1e-7) {
		t.Error("effective-full-rank HOOI should reconstruct exactly")
	}
}
