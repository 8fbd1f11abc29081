package repro.spark

import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.{ActiveElement, Bucket, Element, TopicModel}

/** Event delivered to the per-topic stateful operator. Three kinds:
  *  - `kind = 0` (insert): element `id` with semantic score `rScore` and
  *    topic probability `pTopic` enters topic `topic`'s list (Alg. 1 l. 4–7);
  *  - `kind = 1` (ref): element `id` (the child, with probability `pChild`
  *    on this topic) refers to `parentId` — the parent's influence score and
  *    last-referred time are updated (Alg. 1 l. 8–11). Ref events are routed
  *    to every topic of the *parent's* support so expiry stays
  *    topic-independent, matching the driver engine;
  *  - `kind = 2` (tick): bucket boundary, forcing expiry even on topics with
  *    no arrivals this bucket (Alg. 1 l. 12–13).
  */
final case class TopicEvent(
    topic: Int,
    kind: Int,
    id: Long,
    ts: Long,
    bucketEnd: Long,
    rScore: Double,
    pTopic: Double,
    parentId: Long,
    pChild: Double,
    // Parent snapshot on ref events, so a parent discarded from the state
    // can be resurrected when re-referred (same semantics as KSirEngine).
    parentTs: Long = 0L,
    parentR: Double = 0.0,
    parentP: Double = 0.0,
)

final case class ChildEntry(childId: Long, childTs: Long, pChild: Double)

final case class StatefulElem(
    id: Long,
    ts: Long,
    lastRef: Long,
    rScore: Double,
    pTopic: Double,
    children: List[ChildEntry],
)

final case class TopicListState(elems: Map[Long, StatefulElem])

/** One emitted ranked-list entry: topic i's list as of `bucketEnd`, in rank
  * order (δ_i descending, id descending — the same total order the driver
  * engine uses).
  */
final case class RankedEntry(topic: Int, bucketEnd: Long, rank: Int, elem: Long, delta: Double)

/** Structured-Streaming rendering of Algorithm 1: per-topic ranked lists
  * maintained by a stateful operator (`flatMapGroupsWithState`, update mode),
  * one group per topic, one micro-batch per stream bucket. The k-SIR query
  * processor consumes these lists; the driver engine
  * ([[repro.core.KSirEngine]]) is the single-node reference the streaming
  * state is tested against.
  */
object StreamingRankedLists {

  /** Build the event log for a bucketized stream. Pure input preparation
    * (the generator knows every element's scores); the system under test is
    * the stateful operator in [[pipeline]].
    */
  def events(
      model: TopicModel,
      buckets: Seq[Bucket],
      topN: Int,
  ): Seq[TopicEvent] = {
    val elemOf = scala.collection.mutable.LongMap.empty[Element]
    buckets.flatMap { b =>
      val ticks = (0 until model.z).map(t => TopicEvent(t, 2, 0L, b.endTs, b.endTs, 0, 0, 0L, 0))
      // (ts, id) order, as the engine applies them: a reference counts only
      // if its parent came earlier, whatever order the bucket lists them in.
      val rows = b.elements.sortBy(e => (e.ts, e.id)).flatMap { e =>
        elemOf(e.id) = e
        val inserts = e.topics.map { case (t, pe) =>
          TopicEvent(t, 0, e.id, e.ts, b.endTs, rScore(model, e, t, pe), pe, 0L, 0)
        }
        val refs = e.parents.toSeq.flatMap { pid =>
          elemOf.get(pid).toSeq.flatMap { parent =>
            parent.topics.map { case (t, pp) =>
              TopicEvent(t, 1, e.id, e.ts, b.endTs, 0, 0, pid, e.pTopic(t),
                parentTs = parent.ts, parentR = rScore(model, parent, t, pp), parentP = pp)
            }
          }
        }
        inserts.toSeq ++ refs
      }
      rows ++ ticks
    }
  }

  private def rScore(model: TopicModel, e: Element, topic: Int, pe: Double): Double =
    ActiveElement.rScore(ActiveElement.sigma(model, e, topic, pe))

  /** The stateful dataflow: events keyed by topic, state = the topic's list,
    * output = the top-`topN` ranked entries after each bucket.
    */
  def pipeline(
      spark: SparkSession,
      eventsDs: Dataset[TopicEvent],
      window: Long,
      lambda: Double,
      eta: Double,
      topN: Int,
  ): Dataset[RankedEntry] = {
    import spark.implicits._
    eventsDs
      .groupByKey(_.topic)
      .flatMapGroupsWithState(OutputMode.Update(), GroupStateTimeout.NoTimeout)(
        updateTopic(window, lambda, eta, topN))
  }

  private[spark] def updateTopic(window: Long, lambda: Double, eta: Double, topN: Int)(
      topic: Int,
      rows: Iterator[TopicEvent],
      state: GroupState[TopicListState],
  ): Iterator[RankedEntry] = {
    var elems = state.getOption.map(_.elems).getOrElse(Map.empty[Long, StatefulElem])
    var bucketEnd = 0L
    // Inserts before refs at equal ts; refs always point strictly backwards
    // in time, so ts-order replay reconstructs Algorithm 1's sequence.
    rows.toSeq.sortBy(r => (r.ts, r.kind, r.id)).foreach { ev =>
      bucketEnd = math.max(bucketEnd, ev.bucketEnd)
      ev.kind match {
        case 0 =>
          elems += ev.id -> StatefulElem(ev.id, ev.ts, ev.ts, ev.rScore, ev.pTopic, Nil)
        case 1 =>
          // Resurrect a discarded parent on re-reference (the ref event
          // carries the parent's static scores for exactly this case).
          val p = elems.getOrElse(ev.parentId,
            StatefulElem(ev.parentId, ev.parentTs, ev.parentTs, ev.parentR, ev.parentP, Nil))
          elems += p.id -> p.copy(
            lastRef = math.max(p.lastRef, ev.ts),
            children = ChildEntry(ev.id, ev.ts, ev.pChild) :: p.children,
          )
        case _ => // tick
      }
    }
    val windowStart = bucketEnd - window + 1
    elems = elems.collect {
      case (id, e) if e.lastRef >= windowStart =>
        id -> e.copy(children = e.children.filter(_.childTs >= windowStart))
    }
    state.update(TopicListState(elems))

    val ranked = elems.values.toSeq
      .map { e =>
        val inf = e.pTopic * e.children.map(_.pChild).sum
        (e.id, lambda * e.rScore + (1 - lambda) / eta * inf)
      }
      .sortBy { case (id, d) => (-d, -id) }
      .take(topN)
    ranked.zipWithIndex.map { case ((id, d), i) =>
      RankedEntry(topic, bucketEnd, i + 1, id, d)
    }.iterator
  }
}
