package repro.core

/** The exact projection onto the cube and the slabs `⟨w_j, x⟩ ∈ [los_j, his_j]`,
  * through [[GDKernel.exactCoefficients]] with no vertex fixed and a zero
  * gradient.
  */
object ExactProjection {

  /** The projection of `y`. */
  def apply(y: Array[Double], ws: Array[Array[Double]], los: Array[Double], his: Array[Double]): Array[Double] =
    at(y, ws, GDKernel.exactCoefficients(ws, Array.range(0, y.length), y, new Array[Double](y.length), 0.0, los, his)._1)

  /** `clip(y − Σ_j λ_j·w_j)`. */
  def at(y: Array[Double], ws: Array[Array[Double]], lambda: Array[Double]): Array[Double] =
    Array.tabulate(y.length)(i => Projections.clip(y(i) - ws.indices.map(j => lambda(j) * ws(j)(i)).sum))
}
