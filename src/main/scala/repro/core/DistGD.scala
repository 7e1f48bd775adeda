package repro.core

import org.apache.spark.{Aggregator, DirectRDD, Partitioner}
import org.apache.spark.rdd.{RDD, ShuffledRDD}
import org.apache.spark.sql.{DataFrame, Row, SparkSession}
import org.apache.spark.sql.types.{IntegerType, LongType, StructField, StructType}
import org.apache.spark.util.AccumulatorV2
import scala.collection.mutable.ArrayBuffer
import scala.reflect.ClassTag

/** Distributed executor of [[GDKernel]] on partition-local CSR blocks, the
  * vertex-cut routing layout of GraphX (Gonzalez et al., OSDI'14).
  *
  * Each call hash-partitions the symmetrized edge list by source into
  * m = `spark.sql.shuffle.partitions` logical blocks, once, and runs them on
  * `min(m, defaultParallelism)` Spark partitions of contiguous blocks
  * ([[Groups]]); m alone fixes the order of every sum. A block holds its
  * sorted vertex ids and, as ghost rows, one copy of each neighbour that
  * another block owns, with the weight rows of both and a CSR adjacency over
  * them (see [[Block]]). Per-row state (`x` and the [[GDKernel.Rows]] of the
  * own and of the ghost rows) stays aligned with the blocks through
  * `zipPartitions`.
  *
  * A GD iteration is one Spark stage, which reads the gradients of the last
  * iteration's stage from its shuffle and writes its own. Each block replays
  * the driver's last step on its own and on its ghost rows with the same
  * arithmetic, so its copy of every neighbour's `z` is the owner's, bit for
  * bit; sums `grad = A·z` over its own rows locally — the `O(|E|/m)` mat-vec
  * of Theorem 1.1, each vertex's neighbours added block by block in block
  * order; adds the kernel's step statistics to an accumulator keyed by block
  * ([[BlockSums]]); and ships `grad` of each own vertex to the blocks that
  * keep it as a ghost ([[exchange]]). Only gradients cross the shuffle: both
  * ends know which rows a batch holds. No RDD or job of the loop passes
  * Spark's closure cleaner ([[org.apache.spark.DirectRDD]]). After rounding
  * and repair, one more exchange ships `s = 2·part − 1` to the ghosts, which
  * caches the final parts and sums `sᵀAs = 2·(uncut − cut)`, from which the
  * reported locality is exact. A k-way call runs log₂k levels of such
  * splits on the same blocks, one per piece of a level ([[recurse]]);
  * [[bipartition]] is its one-level case.
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

  /** The vertices hashed to logical block `q`, sorted by id, then its ghost
    * rows: the distinct neighbours that other blocks own, grouped by owner
    * block in increasing order and sorted by id within a group. Row `i < n`
    * is vertex `ids(i)`, row `n + k` is ghost `ghosts(k)`; `owner(r)` is row
    * r's block and `w(j)(r)` its weight. Vertex `i`'s edges are
    * `offsets(i) until offsets(i + 1)` of `adj`, its neighbours' rows sorted
    * by (owner, id). `send(sendStart(q') until sendStart(q' + 1))` are the
    * vertices that block q' keeps as ghosts, increasing: the graph is
    * symmetric, so they are q''s ghost group of block q, in its order.
    */
  private[core] final case class Block(q: Int, ids: Array[Long], ghosts: Array[Long], w: Array[Array[Double]],
                                       offsets: Array[Int], adj: Array[Int], owner: Array[Int],
                                       send: Array[Int], sendStart: Array[Int]) {
    def n: Int = ids.length
    def rows: Int = owner.length
  }

  /** Symmetrized edges (src, dst) bound for the block owning `src`. */
  private final case class Edges(src: Array[Long], dst: Array[Long])

  /** The values of the vertices that block `from` ships to one block. */
  private final case class Batch(from: Int, values: Array[Double])

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

  /** One vector per block from the tasks of a stage, for the driver to add
    * up in block order ([[sum]]), as [[sumUp]] does. A block's vector
    * replaces what the block sent before, so a task or stage that runs again
    * counts no block twice.
    */
  private final class BlockSums(m: Int) extends AccumulatorV2[(Int, Array[Double]), Map[Int, Array[Double]]] {
    private var sums = Map.empty[Int, Array[Double]]
    def isZero: Boolean = sums.isEmpty
    def copy(): BlockSums = { val c = new BlockSums(m); c.sums = sums; c }
    def reset(): Unit = sums = Map.empty
    def add(v: (Int, Array[Double])): Unit = sums += v
    def merge(other: AccumulatorV2[(Int, Array[Double]), Map[Int, Array[Double]]]): Unit = sums ++= other.value
    def value: Map[Int, Array[Double]] = sums
    def sum: Array[Double] = GDKernel.sumInOrder(Array.tabulate(m)(sums))
  }

  /** Per-row state of one block, aligned with its rows: `x` and the
    * [[GDKernel.Rows]] of the own and of the ghost rows. A new state takes
    * copies of what it changes: cached states are never written.
    */
  private final case class State(x: Array[Double], own: GDKernel.Rows, ghosts: GDKernel.Rows)

  /** One iteration of a block: its state, the point `z` of all its rows and
    * `grad = A·z` of its own.
    */
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
    val sc = spark.sparkContext
    val m = spark.conf.get("spark.sql.shuffle.partitions").toInt
    val groups = new Groups(m, tasks.getOrElse(math.min(m, sc.defaultParallelism)))
    val unweighted = buildBlocks(edges, groups).persist()
    val blocks = weighted(unweighted, specs.map(Weights.ofDegree), groups).persist()
    def blockSums(): BlockSums = { val acc = new BlockSums(m); sc.register(acc); acc }

    // RDDs cached where the next job computes them, with their lineage cut
    // there; each is released once a job has computed its successor. The
    // current parts stay until the next parts are computed. The unweighted
    // blocks stay until the first job has built the weighted ones from them.
    val kept = ArrayBuffer[RDD[_]](unweighted)
    def keep[U](rdd: RDD[U]): RDD[U] = { kept += rdd; rdd.localCheckpoint() }
    var parts = keep(each(blocks)(b => (b.ids, new Array[Int](b.n))))
    def releaseAllBut(live: RDD[_]*): Unit =
      kept.filterInPlace(r => (r eq parts) || live.exists(r eq _) || { DirectRDD.release(r); false })

    var (imbalances, iterations) = (new Array[Double](d), 0)
    var seeds = Array(cfg.seed)
    for (_ <- 0 until levels) {
      val pieces = seeds.length
      // One stage sums the vertex count and weights of every piece,
      // [n, W_0, …, W_{d−1}] each, and ships the parts to the ghost rows.
      val sums = blockSums()
      val ghostParts = exchangeNow(zipped(blocks, parts), groups) { case (b, (_, pt)) =>
        val v = new Array[Double](pieces * (1 + d))
        for (i <- pt.indices) { val at = pt(i) * (1 + d); v(at) += 1; for (j <- 0 until d) v(at + 1 + j) += b.w(j)(i) }
        sums.add(b.q -> v)
        (b, pt.map(_.toDouble))
      }
      val totals = sums.sum
      // From the last piece to the first: a part set at this level,
      // 2·piece + side, is never the id of a piece still to split.
      for (piece <- pieces - 1 to 0 by -1) {
        val seed = seeds(piece)
        val W = totals.slice(piece * (1 + d) + 1, (piece + 1) * (1 + d))
        var state: RDD[State] = keep(DirectRDD.zip(blocks, parts, ghostParts)((bs, ps, gs) =>
          bs.zip(ps).zip(gs).map { case ((b, (_, pt)), gp) =>
            val x = new Array[Double](b.rows)
            State(x, GDKernel.rows(b.w, x, 0, b.n)(pt(_) != piece),
              GDKernel.rows(b.w, x, b.n, b.rows)(r => gp(r - b.n) != piece))
          }))
        var current: RDD[Step] = null
        var ghostGrad: RDD[Array[Double]] = null
        /** `z`: `x`, plus `noise` times the draws on the free rows. */
        def points(noise: Double) = (b: Block, s: State) =>
          if (noise == 0.0) s.x
          else {
            val z = s.x.clone()
            GDKernel.addNoise(z, s.own, noise, seed, b.ids(_))
            GDKernel.addNoise(z, s.ghosts, noise, seed, r => b.ghosts(r - b.n))
            z
          }
        iterations = GDKernel.run(new GDKernel.Blocks {
          // Closures below capture only local values: this object is not serializable.
          def stepStats(noise: Double): Array[Double] = {
            val point = points(noise)
            current = keep(perBlock(blocks, state) { (b, s) => val z = point(b, s); Step(s, z, gradient(b, z)) })
            val stats = blockSums()
            ghostGrad = exchangeNow(zipped(blocks, current), groups) { case (b, p) =>
              stats.add(b.q -> GDKernel.stats(b.w, p.z, p.grad, p.s.own))
              (b, p.grad)
            }
            // The state stays too: the rounding reads it if no step follows.
            releaseAllBut(current, state)
            stats.sum
          }

          def step(gamma: Double, alpha: Array[Double]): Unit = {
            val fixAt = GDKernel.fixAt(cfg)
            state = keep(DirectRDD.zip(blocks, current, ghostGrad)((bs, ps, gs) =>
              bs.zip(ps).zip(gs).map { case ((b, p), gg) =>
                val (x, own, ghosts) = (p.s.x.clone(), p.s.own.copy(), p.s.ghosts.copy())
                val grad = Array.concat(p.grad, gg)
                GDKernel.step(b.w, x, own, p.z, grad, gamma, alpha, fixAt)
                GDKernel.move(b.w, x, ghosts, p.z, grad, gamma, alpha, fixAt)
                State(x, own, ghosts)
              }))
          }

          def slabStats(): Array[Double] = {
            val v = sumUp(perBlock(blocks, state)((b, s) => GDKernel.slabStats(b.w, s.x, s.own)))
            releaseAllBut(state)
            v
          }

          def shift(alpha: Array[Double]): Unit =
            state = keep(perBlock(blocks, state) { (b, s) =>
              val (x, own) = (s.x.clone(), s.own.copy())
              GDKernel.shift(b.w, x, own, alpha)
              State(x, own, s.ghosts)
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
    // one exchange of s = 2·part − 1 computes them and returns
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
    val rows = DirectRDD.map(parts)((_, ps) => ps.flatMap { case (ids, pt) => ids.indices.iterator.map(i => Row(ids(i), pt(i))) })
    val assign = spark.createDataFrame(rows, StructType(Seq(
      StructField("id", LongType, nullable = false), StructField("part", IntegerType, nullable = false))))
    Result(assign, locality, imbalances, iterations)
  }

  private[core] def sumUp(parts: RDD[Array[Double]]): Array[Double] = GDKernel.sumInOrder(DirectRDD.collect(parts))

  /** `f` on each element of `rdd`, one per block. */
  private def each[T: ClassTag, U: ClassTag](rdd: RDD[T])(f: T => U): RDD[U] = DirectRDD.map(rdd)((_, ts) => ts.map(f))

  /** `f` on each block and the element of `rdd` aligned with it. */
  private def perBlock[A: ClassTag, T: ClassTag, U: ClassTag](blocks: RDD[A], rdd: RDD[T])(f: (A, T) => U): RDD[U] =
    DirectRDD.zip(blocks, rdd)((bs, ts) => bs.zip(ts).map(f.tupled))

  /** Each block paired with the element of `rdd` aligned with it. */
  private def zipped[T: ClassTag](blocks: RDD[Block], rdd: RDD[T]): RDD[(Block, T)] = perBlock(blocks, rdd)((_, _))

  /** `f(b, t, A·z)` on each block `b` and its element `t` of `rdd`, where
    * `z(b, t)` holds the values of `b`'s own vertices: one exchange ships
    * them to the ghost rows, and each block sums its vertices' neighbours.
    */
  private[core] def matvec[T: ClassTag, U: ClassTag](blocks: RDD[Block], rdd: RDD[T], groups: Groups)(
      z: (Block, T) => Array[Double])(f: (Block, T, Array[Double]) => U): RDD[U] = {
    val ghostZ = ghostsOf(exchange(zipped(blocks, rdd), groups) { case (b, t) => (b, z(b, t)) }, groups)
    DirectRDD.zip(blocks, rdd, ghostZ)((bs, ts, gs) =>
      bs.zip(ts).zip(gs).map { case ((b, t), gz) => f(b, t, gradient(b, Array.concat(z(b, t), gz))) })
  }

  /** `A·z` on the block's own vertices, from `z` of all its rows. Vertex
    * i's neighbours are added one owner block at a time, in block order:
    * each block's terms in id order into a partial sum from 0.0, and the
    * partial sums into i's sum from 0.0, so each term meets the same adds
    * on every task count.
    */
  private def gradient(b: Block, z: Array[Double]): Array[Double] = {
    val grad = new Array[Double](b.n)
    var i = 0
    while (i < b.n) {
      var sum = 0.0
      var part = 0.0
      var from = -1
      var e = b.offsets(i)
      while (e < b.offsets(i + 1)) {
        val r = b.adj(e)
        if (b.owner(r) != from) { sum += part; part = 0.0; from = b.owner(r) }
        part += z(r)
        e += 1
      }
      grad(i) = sum + part
      i += 1
    }
    grad
  }

  /** Each block `b` of `sent` ships the values of its own vertices to the
    * blocks that keep them as ghosts, one batch per block; `values` returns
    * `b` and the values. No id crosses the shuffle: the receiver's ghost
    * group of `b` lists the same vertices in the same order.
    */
  private def exchange[A: ClassTag](sent: RDD[A], groups: Groups)(
      values: A => (Block, Array[Double])): ShuffledRDD[Int, Batch, List[Batch]] =
    shuffle(DirectRDD.map(sent)((_, as) => as.flatMap { a =>
      val (b, v) = values(a)
      Iterator.range(0, groups.m).filter(q => b.sendStart(q) < b.sendStart(q + 1)).map { q =>
        val (lo, hi) = (b.sendStart(q), b.sendStart(q + 1))
        q -> Batch(b.q, Array.tabulate(hi - lo)(k => v(b.send(lo + k))))
      }
    }), groups)

  /** What [[exchange]] delivers to each block: the values of its ghost rows,
    * the batches concatenated in the order of the blocks that sent them.
    */
  private def ghostsOf(shuffled: ShuffledRDD[Int, Batch, List[Batch]], groups: Groups): RDD[Array[Double]] =
    each(received(shuffled, groups)) { case (_, batches) => Array.concat(batches.sortBy(_.from).map(_.values): _*) }

  /** [[exchange]], with its map stage run now in a job of its own (which
    * first runs the stages of whatever `sent` reads that is not yet
    * computed); returns what it delivers, as [[ghostsOf]] does.
    */
  private def exchangeNow[A: ClassTag](sent: RDD[A], groups: Groups)(
      values: A => (Block, Array[Double])): RDD[Array[Double]] = {
    val shuffled = exchange(sent, groups)(values)
    DirectRDD.runMapStage(shuffled)
    ghostsOf(shuffled, groups)
  }

  /** The blocks of the symmetrized edge list, hash-partitioned by source,
    * without weights ([[weighted]] adds them). The edges are read as the
    * plan's internal rows, columns `src` and `dst` of type long:
    * `Dataset.rdd` would start a SQL execution of its own.
    */
  private[core] def buildBlocks(edges: DataFrame, groups: Groups): RDD[Block] = {
    val m = groups.m
    val (s, t) = (edges.schema.fieldIndex("src"), edges.schema.fieldIndex("dst"))
    require(edges.schema(s).dataType == LongType && edges.schema(t).dataType == LongType,
      s"src and dst must be long columns: ${edges.schema.simpleString}")
    val batches = DirectRDD.map(edges.queryExecution.toRdd) { (_, rows) =>
      val src = Array.fill(m)(Array.newBuilder[Long])
      val dst = Array.fill(m)(Array.newBuilder[Long])
      rows.foreach { r =>
        val u = r.getLong(s); val v = r.getLong(t)
        val p = groups.blockOf(u); src(p) += u; dst(p) += v
        val q = groups.blockOf(v); src(q) += v; dst(q) += u
      }
      Iterator.tabulate(m)(q => q -> Edges(src(q).result(), dst(q).result())).filter(_._2.src.nonEmpty)
    }
    each(received(shuffle(batches, groups), groups)) { case (q, es) => block(q, es, groups) }
  }

  /** The `blocks` with the weights `weightOf` of the degree of every row:
    * one exchange ships each vertex's degree to its ghost copies. It reads
    * `blocks` on both of its sides.
    */
  private[core] def weighted(blocks: RDD[Block], weightOf: Seq[Int => Double], groups: Groups): RDD[Block] = {
    val degrees = (b: Block) => Array.tabulate(b.n)(i => (b.offsets(i + 1) - b.offsets(i)).toDouble)
    DirectRDD.zip(blocks, ghostsOf(exchange(blocks, groups)(b => (b, degrees(b))), groups))((bs, gs) =>
      bs.zip(gs).map { case (b, gd) =>
        val deg = Array.concat(degrees(b), gd)
        b.copy(w = weightOf.map(f => deg.map(k => f(k.toInt))).toArray)
      })
  }

  /** `sent` shuffled to the blocks. The map-side combine makes Spark write one shuffle
    * file per map task; a plain `partitionBy` writes one per (map task, partition) pair, which
    * took 1.1 s instead of 0.33 s for 64 × 64 one-value messages (4 cores).
    */
  private def shuffle[V: ClassTag](sent: RDD[(Int, V)], groups: Groups): ShuffledRDD[Int, V, List[V]] =
    new ShuffledRDD[Int, V, List[V]](sent, groups).setMapSideCombine(true)
      .setAggregator(Aggregator[Int, V, List[V]](List(_), (l, v) => v :: l, _ ::: _))

  /** The values `shuffled` delivers: one `(q, values)` pair per block of a
    * partition, in block order, empty blocks included.
    */
  private def received[V: ClassTag](shuffled: ShuffledRDD[Int, V, List[V]], groups: Groups): RDD[(Int, List[V])] =
    DirectRDD.map(shuffled) { (p, got) =>
      val byBlock = got.toMap
      groups.blocks(p).iterator.map(q => q -> byBlock.getOrElse(q, Nil))
    }

  /** Block `q` of the edges, without weights. */
  private def block(q: Int, batches: Seq[Edges], groups: Groups): Block = {
    val src = Array.concat(batches.map(_.src): _*)
    val dst = Array.concat(batches.map(_.dst): _*)
    val ids = distinctSorted(src)
    val n = ids.length

    // Ghost rows: the distinct neighbours of other blocks, stably regrouped
    // by block. `rank` is each neighbour's place in the (block, id) order of
    // all rows: the ghosts of the blocks before q, the own rows, the rest.
    val nbrs = distinctSorted(dst)
    val start = new Array[Int](groups.m + 1)
    nbrs.foreach { v => val o = groups.blockOf(v); if (o != q) start(o + 1) += 1 }
    for (o <- 0 until groups.m) start(o + 1) += start(o)
    val next = start.clone()
    val ghosts = new Array[Long](start(groups.m))
    val owner = Array.fill(n + ghosts.length)(q)
    val before = start(q)
    val rank = nbrs.map { v =>
      val o = groups.blockOf(v)
      if (o == q) before + java.util.Arrays.binarySearch(ids, v)
      else {
        val k = next(o); next(o) += 1
        ghosts(k) = v; owner(n + k) = o
        if (k < before) k else n + k
      }
    }

    // The edges sorted by (source row, rank of the neighbour).
    val keys = Array.tabulate(src.length)(e => (java.util.Arrays.binarySearch(ids, src(e)).toLong << 32) |
      rank(java.util.Arrays.binarySearch(nbrs, dst(e))))
    java.util.Arrays.sort(keys)
    val offsets = new Array[Int](n + 1)
    val adj = keys.map { key =>
      offsets((key >>> 32).toInt + 1) += 1
      val r = key.toInt
      if (r < before) n + r else if (r < before + n) r - before else r
    }
    for (i <- 0 until n) offsets(i + 1) += offsets(i)

    /** `f(o)` once for each block o ≠ q that owns a neighbour of vertex i. */
    def neighbourBlocks(i: Int)(f: Int => Unit): Unit = {
      var last = q
      for (e <- offsets(i) until offsets(i + 1)) { val o = owner(adj(e)); if (o != q && o != last) { f(o); last = o } }
    }
    val sendStart = new Array[Int](groups.m + 1)
    for (i <- 0 until n) neighbourBlocks(i)(o => sendStart(o + 1) += 1)
    for (o <- 0 until groups.m) sendStart(o + 1) += sendStart(o)
    val fill = sendStart.clone()
    val send = new Array[Int](sendStart(groups.m))
    for (i <- 0 until n) neighbourBlocks(i) { o => send(fill(o)) = i; fill(o) += 1 }
    Block(q, ids, ghosts, Array.empty, offsets, adj, owner, send, sendStart)
  }

  private def distinctSorted(a: Array[Long]): Array[Long] = {
    val s = a.clone()
    java.util.Arrays.sort(s)
    var k = 0
    for (i <- s.indices) if (i == 0 || s(i) != s(i - 1)) { s(k) = s(i); k += 1 }
    java.util.Arrays.copyOf(s, k)
  }
}
