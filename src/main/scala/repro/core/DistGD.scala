package repro.core

import org.apache.spark.{Aggregator, DirectRDD, Partitioner}
import org.apache.spark.rdd.{RDD, ShuffledRDD}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions._
import scala.collection.mutable.ArrayBuffer
import scala.reflect.ClassTag

/** Distributed executor of [[GDKernel]] on partition-local CSR blocks, the
  * vertex-cut routing layout of GraphX (Gonzalez et al., OSDI'14).
  *
  * Each call hash-partitions the symmetrized edge list by source into
  * m = `spark.sql.shuffle.partitions` logical blocks, once, and runs them on
  * `min(m, defaultParallelism)` Spark partitions of contiguous blocks
  * ([[Groups]]); m alone fixes the order of every sum. A block holds its sorted
  * vertex ids, their d weight rows and a CSR adjacency over global neighbour
  * ids (see [[Block]]). Per-vertex state (`x`, and the block's
  * [[GDKernel.Rows]]: its fixed set, its free list and the kernel's
  * bookkeeping) stays aligned with the blocks through `zipPartitions`, so
  * a GD iteration is one Spark job: every block sums `z` over its edges
  * into one message batch per destination block (the map-side combine),
  * the shuffle delivers the batches, whose sums make `grad = A·z` — the `O(|E|/m)`
  * mat-vec of Theorem 1.1 — and one reduction returns the kernel's step
  * statistics. The step itself is a lazy narrow map that the next job
  * runs; no RDD or job of the loop passes Spark's closure cleaner
  * ([[org.apache.spark.DirectRDD]]). After rounding and repair, one
  * more such pass with `z = s = 2·part − 1` caches the final parts and sums
  * `sᵀAs = 2·(uncut − cut)`, from which the reported locality is exact.
  * A k-way call runs log₂k levels of such splits on the same blocks, one
  * per piece of a level ([[recurse]]); [[bipartition]] is its one-level case.
  *
  * Why RDDs and not a DataFrame loop: DESIGN.md §3.
  *
  * Why the shuffled values are small case classes: Spark serializes a
  * shuffle with Kryo when its key and value are both primitive types or
  * arrays of them, and Kryo fails on Java 17 unless the JVM is started with
  * `--add-opens`. A case class value keeps the shuffle on the Java
  * serializer.
  */
object DistGD {

  /** Result of a distributed run.
    *
    * @param assign      (id, part) assignment, part ∈ {0, 1}, read from the
    *                    per-block arrays that the call leaves cached; Spark's
    *                    context cleaner releases them once `assign` is
    *                    unreachable (`assign.unpersist()` does not)
    * @param locality    fraction of uncut edges, computed on the blocks
    *                    (1.0 for an empty edge list)
    * @param imbalances  per-dimension |Σ w_j s| / W_j of the rounded solution
    * @param iterations  GD iterations actually executed
    */
  final case class Result(assign: DataFrame, locality: Double,
                          imbalances: Array[Double], iterations: Int)

  /** The vertices hashed to logical block `q`, sorted by id, with weight
    * rows `w(j)(i)`. Vertex `i`'s edges are `offsets(i) until offsets(i + 1)`;
    * edge `e` adds into message slot `slot(e)`. Slots hold the distinct
    * neighbour ids `slotIds`, grouped by destination block (block q' owns
    * `slotStart(q') until slotStart(q' + 1)`) and sorted within a group.
    */
  private[core] final case class Block(q: Int, ids: Array[Long], w: Array[Array[Double]],
                                 offsets: Array[Int], slot: Array[Int],
                                 slotIds: Array[Long], slotStart: Array[Int])

  /** Symmetrized edges (src, dst) bound for the block owning `src`. */
  private final case class Edges(src: Array[Long], dst: Array[Long])

  /** Sums of `z` over the neighbours of `ids`, from block `from`. */
  private final case class Messages(from: Int, ids: Array[Long], sums: Array[Double])

  /** `m` blocks on `tasks` Spark partitions: partition p runs the blocks q
    * with ⌊q·tasks/m⌋ = p. Vertex `id` is in block `id.hashCode mod m`.
    */
  private[core] final class Groups(val m: Int, tasks: Int) extends Partitioner {
    def blockOf(id: Long): Int = Math.floorMod(java.lang.Long.hashCode(id), m)
    def numPartitions: Int = tasks
    def getPartition(q: Any): Int = (q.asInstanceOf[Int].toLong * tasks / m).toInt
    /** The blocks of partition `p`, in order. */
    def blocks(p: Int): Seq[Int] = (0 until m).filter(getPartition(_) == p)
  }

  /** Per-vertex state of one block, aligned with its ids: `x` and the
    * block's [[GDKernel.Rows]]. A new state takes copies of what it changes:
    * cached states are never written.
    */
  private final case class State(x: Array[Double], rows: GDKernel.Rows)

  /** One iteration of a block: its state, the point `z` and `grad = A·z`. */
  private final case class Step(s: State, z: Array[Double], grad: Array[Double])

  /** Balanced 2-partition of the canonical edge list under the named weight
    * specs (see [[Weights]]): the one-level case of [[partitionK]]. Only the
    * one-shot alternating projection is supported distributed — matching the
    * paper's large-scale configuration; the exact projection is evaluated
    * in-core by [[LocalGD]].
    */
  def bipartition(spark: SparkSession, edges: DataFrame, specs: Seq[String],
                  cfg: GDConfig): Result = recurse(spark, edges, specs, 1, cfg)

  /** Recursive k-way partitioning (paper §3.3, k a power of two): the
    * recursion of [[RecursivePartitioner]], with the same weights, seeds and
    * draws. Returns the (id, part) assignment, part ∈ [0, k), cached as
    * [[Result]]'s is.
    */
  def partitionK(spark: SparkSession, edges: DataFrame, specs: Seq[String],
                 k: Int, cfg: GDConfig): DataFrame = {
    require(k >= 1 && (k & (k - 1)) == 0, s"k must be a power of two, got $k")
    recurse(spark, edges, specs, Integer.numberOfTrailingZeros(k), cfg).assign
  }

  /** `levels` levels of the recursion on blocks built once from the whole
    * edge list, so every weight is the full graph's. A level splits each of
    * its pieces with [[GDKernel.run]] on all blocks: the vertices outside the
    * piece stay fixed at x = 0, so their z is 0 and their edges add nothing
    * to the gradient, while `n`, `W`, rounding, side sums and repair are the
    * piece's own. Piece p's vertices then take part 2·p + side. The result's
    * imbalances and iterations are the last split's; its locality is NaN
    * unless `levels` is 1. `tasks` (tests only) overrides the partition count.
    */
  private[core] def recurse(spark: SparkSession, edges: DataFrame, specs: Seq[String], levels: Int,
                            cfg: GDConfig, tasks: Option[Int] = None): Result = {
    require(cfg.projection == ProjectionMethod.OneShot,
      "DistGD implements the paper's distributed default (one-shot alternating)")
    val d = specs.length
    val m = spark.conf.get("spark.sql.shuffle.partitions").toInt
    val groups = new Groups(m, tasks.getOrElse(math.min(m, spark.sparkContext.defaultParallelism)))
    val blocks = buildBlocks(edges, specs.map(Weights.ofDegree), groups).persist()

    // RDDs cached where the next job computes them, with their lineage cut
    // there; each is released once a job has computed its successor. The
    // current parts stay until the next parts are computed.
    val kept = ArrayBuffer.empty[RDD[_]]
    def keep[U](rdd: RDD[U]): RDD[U] = { kept += rdd; rdd.localCheckpoint() }
    var parts = keep(each(blocks)(b => (b.ids, new Array[Int](b.ids.length))))
    def releaseAllBut(live: RDD[_]*): Unit =
      kept.filterInPlace(r => (r eq parts) || live.exists(r eq _) || { DirectRDD.release(r); false })

    var (imbalances, iterations) = (new Array[Double](d), 0)
    var seeds = Array(cfg.seed)
    for (_ <- 0 until levels) {
      val pieces = seeds.length
      // Vertex count and weights of every piece, [n, W_0, …, W_{d−1}] each.
      val totals = sumUp(perBlock(blocks, parts) { case (b, (_, pt)) =>
        val v = new Array[Double](pieces * (1 + d))
        for (i <- pt.indices) { val at = pt(i) * (1 + d); v(at) += 1; for (j <- 0 until d) v(at + 1 + j) += b.w(j)(i) }
        v
      })
      // From the last piece to the first: a part set at this level,
      // 2·piece + side, is never the id of a piece still to split.
      for (piece <- pieces - 1 to 0 by -1) {
        val seed = seeds(piece)
        val W = totals.slice(piece * (1 + d) + 1, (piece + 1) * (1 + d))
        var state: RDD[State] = keep(perBlock(blocks, parts) { case (b, (ids, pt)) =>
          val x = new Array[Double](ids.length)
          State(x, GDKernel.rows(b.w, x, 0, x.length)(pt(_) != piece)) })
        var current: RDD[Step] = null
        /** `z`: `x`, plus `noise` times the draws on the free vertices. */
        def points(noise: Double) = (b: Block, s: State) =>
          if (noise == 0.0) s.x
          else { val z = s.x.clone(); GDKernel.addNoise(z, s.rows, noise, seed, b.ids(_)); z }
        iterations = GDKernel.run(new GDKernel.Blocks {
          // Closures below capture only local values: this object is not serializable.
          def stepStats(noise: Double): Array[Double] = {
            val point = points(noise)
            current = keep(matvec(blocks, state, groups)(point)((b, s, grad) => Step(s, point(b, s), grad)))
            val v = sumUp(perBlock(blocks, current)((b, p) => GDKernel.stats(b.w, p.z, p.grad, p.s.rows)))
            // The state stays too: the rounding reads it if no step follows.
            releaseAllBut(current, state)
            v
          }

          def step(gamma: Double, alpha: Array[Double]): Unit = {
            val fixAt = GDKernel.fixAt(cfg)
            state = keep(perBlock(blocks, current) { (b, p) =>
              val (x, rows) = (p.s.x.clone(), p.s.rows.copy())
              GDKernel.step(b.w, x, rows, p.z, p.grad, gamma, alpha, fixAt)
              State(x, rows)
            })
          }

          def slabStats(): Array[Double] = {
            val v = sumUp(perBlock(blocks, state)((b, s) => GDKernel.slabStats(b.w, s.x, s.rows)))
            releaseAllBut(state)
            v
          }

          def shift(alpha: Array[Double]): Unit =
            state = keep(perBlock(blocks, state) { (b, s) =>
              val (x, rows) = (s.x.clone(), s.rows.copy())
              GDKernel.shift(b.w, x, rows, alpha)
              State(x, rows)
            })
        }, totals(piece * (1 + d)).toLong, W, cfg)

        // The piece's vertices take part 2·piece + side: from here on they
        // are the vertices whose part v has v / 2 == piece, on side v % 2.
        parts = keep(perBlock(state, parts) { case (s, (ids, pt)) =>
          (ids, Array.tabulate(ids.length)(i =>
            if (pt(i) != piece) pt(i) else 2 * piece + GDKernel.side(seed, ids(i), s.x(i))))
        })
        val sideOf = (p: (Array[Long], Array[Int])) => p._2.map(v => if (v / 2 == piece) v % 2 else -1)
        val sums = sumUp(perBlock(blocks, parts)((b, p) => GDKernel.sideSums(b.w, sideOf(p))))
        // Each repair sweep pulls the 50k least confident vertices of the
        // heavy side to the driver.
        val flips = scala.collection.mutable.Set.empty[Long]
        def candidates(heavy: Int): Iterator[(Long, Array[Double])] = {
          val flipped = flips.toSet
          DirectRDD.zip(blocks, state, parts)((bs, ss, ps) => bs.zip(ss).zip(ps).flatMap { case ((b, st), p) =>
            val side = sideOf(p)
            b.ids.indices.iterator.filter(i => side(i) >= 0 && (side(i) == heavy) != flipped(b.ids(i)))
              .map(i => (math.abs(st.x(i)), b.ids(i), b.w.map(_(i))))
          }).takeOrdered(50000)(Ordering.by[(Double, Long, Array[Double]), (Double, Long)](c => (c._1, c._2))(
            Ordering.Tuple2(Ordering.Double.TotalOrdering, Ordering.Long)))
            .iterator.map(c => (c._2, c._3))
        }
        GDKernel.repair(sums, W, cfg.eps, candidates, id => if (!flips.remove(id)) flips += id)
        imbalances = GDKernel.imbalances(sums, W)
        val flipped = flips.toSet
        parts = keep(each(parts) { case (ids, pt) => (ids, Array.tabulate(ids.length)(i => pt(i) ^ (if (flipped(ids(i))) 1 else 0))) })
      }
      seeds = Array.tabulate(2 * pieces)(q => RecursivePartitioner.childSeed(seeds(q / 2), q % 2))
    }
    // A k-way call computes the final parts with a count. A bipartition's
    // one message pass of s = 2·part − 1 computes them and returns
    // sᵀAs = 2·(uncut − cut) and the D directed adjacency entries.
    val locality = if (levels != 1) { parts.count(); Double.NaN } else {
      val spins = (p: (Array[Long], Array[Int])) => p._2.map(2.0 * _ - 1)
      val Array(sAs, entries) = sumUp(matvec(blocks, parts, groups)((_, p) => spins(p)) { (b, p, grad) =>
        val s = spins(p)
        var sum = 0.0
        var i = 0
        while (i < s.length) { sum += s(i) * grad(i); i += 1 }
        Array(sum, b.offsets.last.toDouble)
      })
      if (entries == 0) 1.0 else (sAs + entries) / (2 * entries)
    }
    releaseAllBut(parts)
    blocks.unpersist()
    import spark.implicits._
    val assign = DirectRDD.map(parts)((_, ps) => ps.flatMap(p => p._1.iterator.zip(p._2.iterator))).toDF("id", "part")
    Result(assign, locality, imbalances, iterations)
  }

  private[core] def sumUp(parts: RDD[Array[Double]]): Array[Double] = GDKernel.sumInOrder(DirectRDD.collect(parts))

  /** `f` on each element of `rdd`, one per block. */
  private def each[T: ClassTag, U: ClassTag](rdd: RDD[T])(f: T => U): RDD[U] = DirectRDD.map(rdd)((_, ts) => ts.map(f))

  /** `f` on each block and the element of `rdd` aligned with it. */
  private def perBlock[A: ClassTag, T: ClassTag, U: ClassTag](blocks: RDD[A], rdd: RDD[T])(f: (A, T) => U): RDD[U] =
    DirectRDD.zip(blocks, rdd)((bs, ts) => bs.zip(ts).map(f.tupled))

  /** `f(b, t, A·z)` on each block `b` and its element `t` of `rdd`: one message pass. */
  private[core] def matvec[T: ClassTag, U: ClassTag](blocks: RDD[Block], rdd: RDD[T], groups: Groups)(
      z: (Block, T) => Array[Double])(f: (Block, T, Array[Double]) => U): RDD[U] = {
    val messages = gather(DirectRDD.zip(blocks, rdd)((bs, ts) => bs.zip(ts).flatMap { case (b, t) => sendSums(b, z(b, t)) }), groups)
    DirectRDD.zip(blocks, rdd, messages)((bs, ts, ms) =>
      bs.zip(ts).zip(ms).map { case ((b, t), (_, batches)) => f(b, t, gradient(b, batches)) })
  }

  /** The blocks of the symmetrized edge list, hash-partitioned by source.
    * The edges are read as the plan's internal rows: `Dataset.rdd` would
    * start a SQL execution of its own.
    */
  private[core] def buildBlocks(edges: DataFrame, weightOf: Seq[Int => Double], groups: Groups): RDD[Block] = {
    val m = groups.m
    val read = edges.select(col("src").cast("long"), col("dst").cast("long")).queryExecution.toRdd
    val batches = DirectRDD.map(read) { (_, rows) =>
      val src = Array.fill(m)(Array.newBuilder[Long])
      val dst = Array.fill(m)(Array.newBuilder[Long])
      rows.foreach { r =>
        val u = r.getLong(0); val v = r.getLong(1)
        val p = groups.blockOf(u); src(p) += u; dst(p) += v
        val q = groups.blockOf(v); src(q) += v; dst(q) += u
      }
      Iterator.tabulate(m)(q => q -> Edges(src(q).result(), dst(q).result())).filter(_._2.src.nonEmpty)
    }
    each(gather(batches, groups)) { case (q, es) => block(q, es, weightOf, groups) }
  }

  /** The values sent to each block: one `(q, values)` pair per block of a partition, in
    * block order, empty blocks included. The map-side combine makes Spark write one shuffle
    * file per map task; a plain `partitionBy` writes one per (map task, partition) pair, which
    * took 1.1 s instead of 0.33 s for 64 × 64 one-value messages (4 cores).
    */
  private def gather[V: ClassTag](sent: RDD[(Int, V)], groups: Groups): RDD[(Int, List[V])] =
    DirectRDD.map(new ShuffledRDD[Int, V, List[V]](sent, groups).setMapSideCombine(true)
      .setAggregator(Aggregator[Int, V, List[V]](List(_), (l, v) => v :: l, _ ::: _))) { (p, got) =>
      val byBlock = got.toMap
      groups.blocks(p).iterator.map(q => q -> byBlock.getOrElse(q, Nil))
    }

  private def block(q: Int, batches: Seq[Edges], weightOf: Seq[Int => Double], groups: Groups): Block = {
    val src = Array.concat(batches.map(_.src): _*)
    val dst = Array.concat(batches.map(_.dst): _*)
    val ids = distinctSorted(src)
    val local = src.map(java.util.Arrays.binarySearch(ids, _))
    val offsets = new Array[Int](ids.length + 1)
    local.foreach(i => offsets(i + 1) += 1)
    for (i <- ids.indices) offsets(i + 1) += offsets(i)

    // Slots: the distinct neighbours, stably regrouped by destination block.
    val nbrs = distinctSorted(dst)
    val slotStart = new Array[Int](groups.m + 1)
    nbrs.foreach(v => slotStart(groups.blockOf(v) + 1) += 1)
    for (q <- 0 until groups.m) slotStart(q + 1) += slotStart(q)
    val next = slotStart.clone()
    val slotIds = new Array[Long](nbrs.length)
    val slotOf = nbrs.map { v =>
      val q = groups.blockOf(v)
      val k = next(q); next(q) += 1
      slotIds(k) = v
      k
    }
    val fill = offsets.clone()
    val slot = new Array[Int](dst.length)
    for (e <- dst.indices) {
      val i = local(e)
      slot(fill(i)) = slotOf(java.util.Arrays.binarySearch(nbrs, dst(e)))
      fill(i) += 1
    }
    val w = weightOf.map(f => Array.tabulate(ids.length)(i => f(offsets(i + 1) - offsets(i)))).toArray
    Block(q, ids, w, offsets, slot, slotIds, slotStart)
  }

  private def distinctSorted(a: Array[Long]): Array[Long] = {
    val s = a.clone()
    java.util.Arrays.sort(s)
    var k = 0
    for (i <- s.indices) if (i == 0 || s(i) != s(i - 1)) { s(k) = s(i); k += 1 }
    java.util.Arrays.copyOf(s, k)
  }

  /** Map side of the mat-vec: one batch of neighbour sums of `z` per
    * destination block that has neighbours here.
    */
  private def sendSums(b: Block, z: Array[Double]): Iterator[(Int, Messages)] = {
    val acc = new Array[Double](b.slotIds.length)
    for (i <- b.ids.indices) {
      val zi = z(i)
      var e = b.offsets(i)
      while (e < b.offsets(i + 1)) { acc(b.slot(e)) += zi; e += 1 }
    }
    (0 until b.slotStart.length - 1).iterator
      .filter(q => b.slotStart(q) < b.slotStart(q + 1))
      .map { q =>
        val (lo, hi) = (b.slotStart(q), b.slotStart(q + 1))
        q -> Messages(b.q, b.slotIds.slice(lo, hi), acc.slice(lo, hi))
      }
  }

  /** Reduce side of the mat-vec: `grad = A·z` on the block's vertices,
    * added up in source-block order so that runs repeat bit for bit.
    */
  private def gradient(b: Block, batches: List[Messages]): Array[Double] = {
    val grad = new Array[Double](b.ids.length)
    for (m <- batches.sortBy(_.from); k <- m.ids.indices)
      grad(java.util.Arrays.binarySearch(b.ids, m.ids(k))) += m.sums(k)
    grad
  }
}
