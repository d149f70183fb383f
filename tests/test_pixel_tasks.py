"""Stateless pixel stages run as task-based map_batches over one decode
helper: no converted query may plan an actor pool, and batch boundaries
that fall mid-corpus (with a partial last batch) reproduce the sequential
signature tables exactly."""

from __future__ import annotations

import os

import pyarrow.parquet as pq
import pytest

# the image queries read the fixture tier named by the sf directory's
# basename (queries_media.fixture_dir_for): sf0.001 → the tiny tier
SF = "sf0.001"


def _map_ops(ds):
    """Every logical operator of ``ds`` that carries a compute strategy."""
    out, todo = [], [ds._logical_plan.dag]
    while todo:
        op = todo.pop()
        if hasattr(op, "_compute"):
            out.append(op)
        todo.extend(op.input_dependencies)
    return out


def _actor_ops(ds):
    from ray.data import ActorPoolStrategy

    return [op.name for op in _map_ops(ds) if isinstance(op._compute, ActorPoolStrategy)]


def _converted_datasets():
    from mklab_focused_crawler_ray.pipelines import queries_media as qm

    return {
        "image_blur_scores": qm.q_image_blur_scores(SF),
        "image_exposure_stats": qm.q_image_exposure_stats(SF),
        "image_color_stats": qm.q_image_color_stats(SF),
        "image_junk_gate": qm.q_image_junk_gate(SF),
        "image_curation_funnel": qm.curation_gates(qm._images(SF)),
        "image_thumbnails": qm.q_image_thumbnails(SF),
        "image_decode_check": qm.q_image_decode_check(SF),
        "caption_image_alignment": qm.q_caption_image_alignment(SF),
    }


def test_converted_image_queries_plan_no_actor_pool(ray_session):
    from mklab_focused_crawler_ray.pipelines.queries_media import _images
    from mklab_focused_crawler_ray.stages.image import embed_images

    # the walk does see a pool where one is meant to be (the embed
    # stage keeps its per-actor model-weight slot)
    assert _actor_ops(embed_images(_images(SF)))
    for name, ds in _converted_datasets().items():
        assert _map_ops(ds), name
        assert _actor_ops(ds) == [], name


@pytest.mark.parametrize("kind", ["blur", "exposure", "color"])
def test_pixel_stage_mid_corpus_batches_equal_signatures(ray_session, tiny_fixture, kind):
    from mklab_focused_crawler_ray.pipelines import queries_media as qm
    from mklab_focused_crawler_ray.stages import image

    stage, signature = {
        "blur": (image.blur_scores, qm.blur_signature_parquet),
        "exposure": (image.exposure_scores, qm.exposure_signature_parquet),
        "color": (image.color_scores, qm.color_signature_parquet),
    }[kind]
    fdir = tiny_fixture
    images = os.path.join(fdir, "images.parquet")
    batch = 7
    n = pq.read_metadata(images).num_rows
    assert n > batch and n % batch != 0  # the last batch is partial
    got = stage(images, batch_size=batch).to_pandas()
    want = pq.read_table(signature(fdir)).to_pandas()
    assert list(got.columns) == list(want.columns)
    got = got.sort_values("image_id").reset_index(drop=True)
    want = want.sort_values("image_id").reset_index(drop=True)
    assert len(got) == n
    assert got.equals(want)
