"""A plain reference for evacuation: one object at a time.

Each survivor is bump-allocated into the generation its destination
callable names and its new pages are marked written.  Tests compare
:meth:`SimHeap.evacuate` and its
:class:`~repro.heap.evacuation.EvacuationPlan` lowering against this
definition instead of against a second engine inside the heap.
"""

from repro.config import YOUNG_GEN


def evacuate_objects(heap, regions, epoch, source_gen, destination_for):
    """Evacuate like ``heap.evacuate``, calling ``destination_for(obj)``
    per survivor; returns ``(survivor_bytes, promoted_bytes, scanned)``."""
    survivor_bytes = promoted_bytes = scanned = 0
    page_table = heap.page_table
    for region in regions:
        source_gen.release_region(region)
    for region in regions:
        for obj in region.objects:
            scanned += 1
            if obj.mark_epoch != epoch:
                continue
            dest = destination_for(obj)
            address = dest.allocate(obj)
            page_table.mark_written_range(address, obj.size)
            if dest.gen_id != region.gen_id:
                promoted_bytes += obj.size
            else:
                survivor_bytes += obj.size
            if dest.gen_id != YOUNG_GEN and any(
                child.gen_id == YOUNG_GEN for child in obj.refs
            ):
                # Promotion created an old->young edge.
                heap.old_to_young_remset[obj.object_id] = obj
        heap.free_region(region)
    return survivor_bytes, promoted_bytes, scanned
